//! §4.4: benefits of storage-assisted training — P2P vs host-staged
//! bandwidth (paper: 2.14x) and interconnect data-movement reduction
//! (paper: 3.47x average).
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin movement`.

use nessa_bench::rule;
use nessa_core::timing::{mean_data_movement_reduction, Workload};
use nessa_data::DatasetSpec;
use nessa_smartssd::LinkModel;

fn main() {
    println!("Section 4.4: benefits of storage-assisted training");
    rule(70);
    // Bandwidth comparison at each dataset's record size, batch 128.
    let p2p = LinkModel::p2p();
    let host = LinkModel::host_staged();
    println!(
        "{:<14} {:>12} {:>12} {:>10} | {:>14}",
        "Dataset", "P2P GB/s", "Host GB/s", "Ratio", "Movement red."
    );
    rule(70);
    let specs = DatasetSpec::table1();
    let mut ratio_sum = 0.0;
    for spec in &specs {
        let b = spec.bytes_per_image as u64;
        let tp = p2p.effective_bytes_per_s(128, b) / 1e9;
        let th = host.effective_bytes_per_s(128, b) / 1e9;
        ratio_sum += tp / th;
        let fraction = spec.paper.expect("table 2 row").subset_pct as f64 / 100.0;
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>9.2}x | {:>13.2}x",
            spec.name,
            tp,
            th,
            tp / th,
            Workload::from_spec(spec).movement_reduction(fraction)
        );
    }
    rule(70);
    println!(
        "Average P2P/host bandwidth ratio: {:.2}x   (paper: 2.14x)",
        ratio_sum / specs.len() as f64
    );
    println!(
        "Average interconnect data-movement reduction: {:.2}x   (paper: 3.47x)",
        mean_data_movement_reduction(&specs)
    );
}
