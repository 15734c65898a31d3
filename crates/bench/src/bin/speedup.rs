//! §4.3: end-to-end training speed-up of NeSSA across all datasets, as
//! the ratio of each policy's per-epoch time to NeSSA's under the paper-
//! scale epoch model.
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin speedup`.

use nessa_bench::rule;
use nessa_core::timing::{craig_cpu_epoch, goal_epoch, kcenters_cpu_epoch, nessa_epoch, Workload};
use nessa_data::DatasetSpec;
use nessa_nn::cost::DeviceSpec;

fn main() {
    let gpu = DeviceSpec::v100();
    println!("Section 4.3: end-to-end speed-up of NeSSA ({})", gpu.name);
    rule(76);
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "Dataset", "Subset%", "vs Full", "vs CRAIG", "vs K-Centers", "NeSSA s/ep"
    );
    rule(76);
    let (mut s_full, mut s_craig, mut s_kc) = (0.0, 0.0, 0.0);
    let specs = DatasetSpec::table1();
    for spec in &specs {
        let fraction = spec.paper.expect("table 2 row").subset_pct as f64 / 100.0;
        let w = Workload::from_spec(spec);
        // No convergence credit: the paper claims NeSSA needs fewer epochs
        // to reach the near-final accuracy band (Figure 5), but the measured
        // fig5 runs show parity, both NeSSA and full-data training
        // converging right after the first LR drop at reproduction scale
        // (see EXPERIMENTS.md). So each speed-up is a per-epoch ratio.
        let nessa = nessa_epoch(&w, &gpu, fraction).total_s();
        let full = goal_epoch(&w, &gpu).total_s();
        let craig = craig_cpu_epoch(&w, &gpu, fraction).total_s();
        let kc = kcenters_cpu_epoch(&w, &gpu, fraction).total_s();
        let (vf, vc, vk) = (full / nessa, craig / nessa, kc / nessa);
        s_full += vf;
        s_craig += vc;
        s_kc += vk;
        println!(
            "{:<14} {:>8.0} {:>11.2}x {:>11.2}x {:>11.2}x {:>12.2}",
            spec.name,
            100.0 * fraction,
            vf,
            vc,
            vk,
            nessa
        );
    }
    rule(76);
    let n = specs.len() as f64;
    println!(
        "{:<14} {:>8} {:>11.2}x {:>11.2}x {:>11.2}x",
        "Average",
        "",
        s_full / n,
        s_craig / n,
        s_kc / n
    );
    println!("Paper averages: 5.37x vs full, 4.3x vs CRAIG, 8.1x vs K-Centers.");
}
