//! Property tests for dataset machinery.

use nessa_data::loader::BatchPlan;
use nessa_data::{corrupt, SynthConfig};
use nessa_tensor::rng::Rng64;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #[test]
    fn batch_plans_partition_exactly(
        n in 1usize..300, batch in 1usize..64, seed in any::<u64>()
    ) {
        let plan = BatchPlan::new(n, batch);
        let mut rng = Rng64::new(seed);
        let batches = plan.epoch(&mut rng);
        let all: Vec<usize> = batches.iter().flatten().copied().collect();
        prop_assert_eq!(all.len(), n);
        let set: HashSet<usize> = all.iter().copied().collect();
        prop_assert_eq!(set.len(), n);
        prop_assert!(batches.iter().all(|b| b.len() <= batch));
    }

    #[test]
    fn generated_class_counts_are_balanced(
        classes in 1usize..12, train in 1usize..200, seed in any::<u64>()
    ) {
        let cfg = SynthConfig {
            classes,
            train: train.max(classes),
            test: classes,
            dim: 3,
            seed,
            ..SynthConfig::default()
        };
        let (ds, _) = cfg.generate();
        let by = ds.indices_by_class();
        let max = by.iter().map(Vec::len).max().unwrap();
        let min = by.iter().map(Vec::len).min().unwrap();
        // Round-robin assignment keeps class sizes within one of another.
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn label_noise_touches_only_victims(
        fraction in 0.0f32..1.0, seed in any::<u64>()
    ) {
        let cfg = SynthConfig { train: 60, test: 10, dim: 4, classes: 3, seed, ..SynthConfig::default() };
        let (ds, _) = cfg.generate();
        let mut rng = Rng64::new(seed ^ 1);
        let (noisy, victims) = corrupt::inject_label_noise(&ds, fraction, &mut rng);
        let victim_set: HashSet<usize> = victims.iter().copied().collect();
        for i in 0..ds.len() {
            if victim_set.contains(&i) {
                prop_assert_ne!(noisy.label(i), ds.label(i));
            } else {
                prop_assert_eq!(noisy.label(i), ds.label(i));
            }
        }
    }

}
