//! Per-epoch breakdown of a traced run, read from the span tree the
//! pipeline already emits (`nessa_trace::RunTrace::tree`).

use nessa_telemetry::SpanTree;
use std::collections::BTreeMap;

/// What one `epoch` span and its subtree spent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSpans {
    /// Host wall seconds of the epoch span.
    pub wall_s: f64,
    /// Span name → `(wall s, sim s)`, summed over every descendant of the
    /// epoch span with that name. An overlapped round's `scan`, `select`
    /// and `ship` sit one level down, under `overlap.select`.
    pub phases: BTreeMap<String, (f64, f64)>,
    /// Epoch wall seconds covered by none of its direct children: work the
    /// pipeline runs without a span, such as evaluation.
    pub unattributed_s: f64,
}

impl EpochSpans {
    /// Summed `(wall s, sim s)` of the named phases; `None` when the epoch
    /// ran none of them.
    pub fn phase(&self, names: &[&str]) -> Option<(f64, f64)> {
        names
            .iter()
            .filter_map(|name| self.phases.get(*name))
            .fold(None, |acc, &(wall, sim)| {
                let (w, s) = acc.unwrap_or((0.0, 0.0));
                Some((w + wall, s + sim))
            })
    }
}

/// One [`EpochSpans`] per root `epoch` span, in completion order.
pub fn epochs(tree: &SpanTree) -> Vec<EpochSpans> {
    tree.roots()
        .filter(|root| root.name == "epoch")
        .map(|root| {
            let mut phases: BTreeMap<String, (f64, f64)> = BTreeMap::new();
            let mut stack = vec![root.id];
            while let Some(id) = stack.pop() {
                for span in tree.children(id) {
                    stack.push(span.id);
                    let slot = phases.entry(span.name.clone()).or_default();
                    slot.0 += span.wall_secs;
                    slot.1 += span.sim_secs;
                }
            }
            let children: Vec<(f64, f64)> = tree
                .children(root.id)
                .map(|c| (c.start_secs, c.start_secs + c.wall_secs))
                .collect();
            EpochSpans {
                wall_s: root.wall_secs,
                phases,
                unattributed_s: uncovered(
                    (root.start_secs, root.start_secs + root.wall_secs),
                    &children,
                ),
            }
        })
        .collect()
}

/// Length of the interval `outer` that none of the `inner` intervals cover.
/// Inner intervals may overlap each other (concurrent children) and are
/// clipped to `outer`.
pub fn uncovered(outer: (f64, f64), inner: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = inner
        .iter()
        .map(|&(s, e)| (s.max(outer.0), e.min(outer.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = outer.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (outer.1 - outer.0 - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_telemetry::SpanRecord;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: f64,
        wall: f64,
        sim: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            attrs: Vec::new(),
            start_secs: start,
            wall_secs: wall,
            sim_secs: sim,
        }
    }

    #[test]
    fn uncovered_subtracts_the_union_of_clipped_intervals() {
        assert!((uncovered((0.0, 1.0), &[]) - 1.0).abs() < 1e-12);
        // Two concurrent intervals share [0.2, 0.5]; a third pokes out past
        // the end: covered = [0, 0.6] + [0.9, 1.0].
        let gaps = uncovered((0.0, 1.0), &[(0.0, 0.5), (0.2, 0.6), (0.9, 1.4)]);
        assert!((gaps - 0.3).abs() < 1e-12, "{gaps}");
        assert_eq!(uncovered((0.0, 1.0), &[(-1.0, 2.0)]), 0.0);
    }

    #[test]
    fn sequential_epoch_leaves_evaluation_unattributed() {
        let tree = SpanTree::build(vec![
            span(2, Some(1), "scan", 0.0, 0.1, 0.3),
            span(3, Some(1), "select", 0.1, 0.4, 0.5),
            span(4, Some(1), "ship", 0.5, 0.05, 0.02),
            span(5, Some(1), "train", 0.55, 0.25, 0.0),
            span(6, Some(1), "feedback", 0.8, 0.05, 0.01),
            span(1, None, "epoch", 0.0, 1.0, 0.83),
        ]);
        let e = epochs(&tree);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].wall_s, 1.0);
        assert_eq!(e[0].phase(&["select"]), Some((0.4, 0.5)));
        assert_eq!(e[0].phase(&["overlap.wait"]), None);
        // Nothing spans [0.85, 1.0], where the pipeline evaluates.
        assert!((e[0].unattributed_s - 0.15).abs() < 1e-12);
    }

    #[test]
    fn overlapped_epoch_counts_nested_rounds_and_concurrent_children_once() {
        let tree = SpanTree::build(vec![
            span(3, Some(2), "scan", 0.1, 0.1, 0.2),
            span(4, Some(2), "select", 0.2, 0.5, 0.4),
            span(2, Some(1), "overlap.select", 0.1, 0.7, 0.6),
            span(5, Some(1), "train", 0.0, 0.6, 0.0),
            span(6, Some(1), "overlap.wait", 0.6, 0.2, 0.0),
            span(7, Some(1), "overlap.handoff", 0.8, 0.05, 0.01),
            span(1, None, "epoch", 0.0, 1.0, 0.61),
            span(8, None, "unrelated", 2.0, 1.0, 0.0),
        ]);
        let e = epochs(&tree);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].phase(&["select"]), Some((0.5, 0.4)));
        assert_eq!(
            e[0].phase(&["feedback", "overlap.handoff"]),
            Some((0.05, 0.01))
        );
        // The children cover [0, 0.85]: the round and train run concurrently
        // but count once.
        assert!((e[0].unattributed_s - 0.15).abs() < 1e-12);
    }
}
