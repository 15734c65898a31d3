//! Figure 4: training time per epoch for NeSSA, CPU CRAIG, CPU K-Centers
//! and a model trained on the full dataset (CIFAR-10, ResNet-20, V100).
//! Includes the overlapped-pipelining variant (§3, Figure 3), where
//! selection for the next epoch hides under GPU training and only the
//! feedback hand-off serializes.
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin fig4`.
//! Pass `--json` to emit one JSON object per policy row instead of the
//! human-readable table.

use nessa_bench::rule;
use nessa_core::timing::{
    craig_cpu_epoch, goal_epoch, kcenters_cpu_epoch, nessa_epoch, nessa_overlapped_epoch, Workload,
};
use nessa_data::DatasetSpec;
use nessa_nn::cost::DeviceSpec;
use nessa_telemetry::json::JsonObject;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let spec = DatasetSpec::by_name("CIFAR-10").expect("catalog entry");
    let fraction = spec.paper.expect("table 2 row").subset_pct as f64 / 100.0;
    let w = Workload::from_spec(&spec);
    let gpu = DeviceSpec::v100();
    let nessa = nessa_epoch(&w, &gpu, fraction);
    let ovl = nessa_overlapped_epoch(&w, &gpu, fraction);
    let craig = craig_cpu_epoch(&w, &gpu, fraction);
    let kcenters = kcenters_cpu_epoch(&w, &gpu, fraction);
    let full = goal_epoch(&w, &gpu);
    // (policy, data-movement s, selection s, training s, critical-path s).
    // For the overlapped row the selection side runs *under* training, so
    // its total is max(select, train) + hand-off, not the column sum.
    let rows = [
        (
            "NeSSA",
            nessa.data_move_s,
            nessa.select_s,
            nessa.train_s,
            nessa.total_s(),
        ),
        (
            "NeSSA (ovl)",
            ovl.handoff_secs,
            ovl.select_side_secs,
            ovl.train_secs,
            ovl.critical_path_secs(),
        ),
        (
            "CRAIG",
            craig.data_move_s,
            craig.select_s,
            craig.train_s,
            craig.total_s(),
        ),
        (
            "K-Centers",
            kcenters.data_move_s,
            kcenters.select_s,
            kcenters.train_s,
            kcenters.total_s(),
        ),
        (
            "Full data",
            full.data_move_s,
            full.select_s,
            full.train_s,
            full.total_s(),
        ),
    ];
    if json {
        let base = nessa.total_s();
        for (name, data_move_s, select_s, train_s, total_s) in &rows {
            let mut obj = JsonObject::new()
                .str_field("policy", name)
                .str_field("dataset", spec.name)
                .f64_field("subset_fraction", fraction)
                .f64_field("data_move_s", *data_move_s)
                .f64_field("select_s", *select_s)
                .f64_field("train_s", *train_s)
                .f64_field("total_s", *total_s)
                .f64_field("speedup_vs_nessa", *total_s / base);
            if *name == "NeSSA (ovl)" {
                obj = obj.f64_field("hidden_s", ovl.hidden_secs());
            }
            println!("{}", obj.finish());
        }
        return;
    }
    println!(
        "Figure 4: per-epoch training time, {} / {} / {} (subset {:.0} %)",
        spec.name,
        spec.model.name(),
        gpu.name,
        100.0 * fraction
    );
    rule(66);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "Policy", "Data-mv (s)", "Select (s)", "Train (s)", "Total (s)"
    );
    rule(66);
    for (name, data_move_s, select_s, train_s, total_s) in &rows {
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            name, data_move_s, select_s, train_s, total_s
        );
    }
    rule(66);
    println!(
        "NeSSA (ovl): selection hides under training; total = max(select, \
         train) + hand-off ({:.2} s hidden per epoch)",
        ovl.hidden_secs()
    );
    let base = nessa.total_s();
    println!(
        "Per-epoch totals vs NeSSA: overlap {:.2}x, CRAIG {:.1}x, K-Centers {:.1}x, full {:.1}x",
        rows[1].4 / base,
        rows[2].4 / base,
        rows[3].4 / base,
        rows[4].4 / base
    );
    println!("(paper, end-to-end incl. convergence: 4.3x, 8.1x, 5.37x)");
}
