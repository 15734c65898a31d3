//! Drive the SmartSSD simulator directly: stream a dataset to the FPGA,
//! run the selection kernel, ship a subset to the host, and inspect the
//! timeline, traffic, energy, and FPGA resource report.
//!
//! Run with `cargo run --release --example smartssd_sim`.

use nessa::core::timing::Workload;
use nessa::data::{record, DatasetSpec};
use nessa::smartssd::resources::{KernelResourceConfig, ResourceReport};
use nessa::smartssd::{LinkModel, SmartSsd, SmartSsdConfig};

fn main() {
    let spec = DatasetSpec::by_name("CIFAR-10").expect("catalog entry");
    let (train, _) = spec.scaled_config(3).generate();
    let encoded = record::encode_dataset(&train);
    println!(
        "{}: {} records, {} bytes/record on flash, {:.1} MB total",
        train.name(),
        train.len(),
        record::record_len(train.dim(), train.bytes_per_sample()),
        encoded.len() as f64 / 1e6
    );

    // A full-scale epoch at the Table-2 subset, sized as the Figure-4
    // epoch model sizes it.
    let w = Workload::from_spec(&spec);
    let fraction = spec.paper.expect("table 2 row").subset_pct as f64 / 100.0;
    let mut dev = SmartSsd::new(SmartSsdConfig::default());
    let read_s = dev
        .read_records_to_fpga(w.samples, w.bytes_per_sample)
        .expect("fault-free device");
    let select_s = dev
        .run_selection(&w.kernel_profile(fraction))
        .expect("chunk fits on-chip");
    let ship_s = dev
        .send_subset_to_host(w.subset(fraction), w.bytes_per_sample)
        .expect("fault-free device");
    let feedback_s = dev
        .receive_feedback(w.feedback_bytes())
        .expect("fault-free device");

    println!("simulated epoch timeline:");
    println!("  flash -> FPGA scan : {read_s:>8.3} s");
    println!("  selection kernel   : {select_s:>8.3} s");
    println!("  subset -> host     : {ship_s:>8.3} s");
    println!("  weight feedback    : {feedback_s:>8.3} s");
    println!("  total              : {:>8.3} s", dev.elapsed_secs());

    let t = dev.traffic();
    println!(
        "traffic: on-board {:.0} MB, interconnect {:.0} MB ({:.2}x reduction vs staging all)",
        t.ssd_to_fpga as f64 / 1e6,
        t.interconnect_bytes() as f64 / 1e6,
        t.ssd_to_fpga as f64 / t.interconnect_bytes() as f64
    );
    println!("{}", dev.energy());
    println!();
    println!("{}", dev.trace());

    println!();
    println!("P2P saturation (batch 128):");
    let p2p = LinkModel::p2p();
    for kb in [0.5f64, 3.0, 12.0, 126.0] {
        println!(
            "  {:>6.1} KB/record -> {:.2} GB/s",
            kb,
            p2p.effective_bytes_per_s(128, (kb * 1000.0) as u64) / 1e9
        );
    }

    println!();
    println!(
        "{}",
        ResourceReport::for_kernel(&KernelResourceConfig::cifar10())
    );
}
