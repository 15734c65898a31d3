//! The paper's future work, runnable: shard a full-scale dataset across a
//! fleet of simulated SmartSSDs, select locally on each drive (GreeDi
//! round 1), feed the int8 weights back, and watch the near-storage phases
//! scale while the shared host link becomes the new bottleneck.
//!
//! Run with `cargo run --release --example multi_drive`.

use nessa::core::timing::Workload;
use nessa::data::DatasetSpec;
use nessa::smartssd::cluster::SsdCluster;
use nessa::smartssd::SmartSsdConfig;

fn main() {
    let spec = DatasetSpec::by_name("TinyImageNet").expect("catalog entry");
    // The paper's Table-2 operating point.
    let pct = spec.paper.expect("table 2 row").subset_pct;
    let w = Workload::from_spec(&spec);
    println!(
        "{}: {} records x {} KB, {pct}% subset, GreeDi across drives",
        spec.name,
        w.samples,
        w.bytes_per_sample / 1000
    );
    for drives in [1usize, 2, 4, 8, 16] {
        let mut cluster = SsdCluster::new(drives, SmartSsdConfig::default());
        let p = w
            .run_near_storage(&mut cluster, pct as f64 / 100.0)
            .expect("fault-free");
        println!(
            "  {drives:>2} drives: scan {:>6.2}s  select {:>5.2}s  gather {:>5.2}s  feedback {:>5.2}s  total {:>6.2}s  ({:.1} J)",
            p.scan_s,
            p.select_s,
            p.ship_s,
            p.feedback_s,
            cluster.elapsed_secs(),
            cluster.energy_joules()
        );
    }
    println!("(scan/select parallelize; gather and feedback share one host link — Amdahl)");
}
