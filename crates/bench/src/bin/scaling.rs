//! Future-work extension (paper §5: "scaling over multiple SmartSSDs and
//! GPUs"): how NeSSA's near-storage phases scale when the dataset is
//! sharded across a fleet of drives: each drive of an `SsdCluster` selects
//! over its shard and the local picks are gathered to the host (GreeDi's
//! two rounds, modelled as simulated time), then the int8 feedback is
//! broadcast back. Each drive count runs the same near-storage epoch as
//! Figure 4 (`Workload::run_near_storage`).
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin scaling`.
//! Pass `--json` to emit one JSON object per drive count instead of the
//! human-readable table.

use nessa_bench::rule;
use nessa_core::timing::Workload;
use nessa_data::DatasetSpec;
use nessa_smartssd::cluster::SsdCluster;
use nessa_smartssd::SmartSsdConfig;
use nessa_telemetry::json::JsonObject;

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let spec = DatasetSpec::by_name("ImageNet-100").expect("catalog entry");
    let w = Workload::from_spec(&spec);
    let fraction = 0.28f64;
    if !json {
        println!(
            "Scaling study: {} ({} records × {} KB) at a {:.0} % subset",
            spec.name,
            w.samples,
            w.bytes_per_sample / 1000,
            100.0 * fraction
        );
        rule(78);
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "Drives", "Scan (s)", "Select(s)", "Gather(s)", "Total (s)", "Speedup", "Energy(J)"
        );
        rule(78);
    }
    let mut baseline = None;
    for drives in [1usize, 2, 4, 8] {
        let mut cluster = SsdCluster::new(drives, SmartSsdConfig::default());
        // GreeDi round 1→2: each drive ships its local picks (its share of
        // the subset), the merged set then goes to the GPU.
        let phases = w
            .run_near_storage(&mut cluster, fraction)
            .expect("fault-free cluster");
        let total = phases.total_s();
        let speedup = *baseline.get_or_insert(total) / total;
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .str_field("dataset", spec.name)
                    .u64_field("drives", drives as u64)
                    .f64_field("scan_s", phases.scan_s)
                    .f64_field("select_s", phases.select_s)
                    .f64_field("gather_s", phases.ship_s)
                    .f64_field("feedback_s", phases.feedback_s)
                    .f64_field("total_s", total)
                    .f64_field("speedup", speedup)
                    .f64_field("energy_j", cluster.energy_joules())
                    .finish()
            );
        } else {
            println!(
                "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>11.2}x {:>10.1}",
                drives,
                phases.scan_s,
                phases.select_s,
                phases.ship_s,
                total,
                speedup,
                cluster.energy_joules()
            );
        }
    }
    if !json {
        rule(78);
        println!("Scan and select scale with drives; gather/feedback share the host link.");
    }
}
