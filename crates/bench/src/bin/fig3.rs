//! Figure 3: system setup — the paper's architecture diagram, printed
//! with the concrete parameters this reproduction simulates, plus a live
//! one-epoch timeline from the device.
//!
//! Regenerate with `cargo run --release -p nessa-bench --bin fig3`.

use nessa_core::timing::Workload;
use nessa_data::DatasetSpec;
use nessa_smartssd::{SmartSsd, SmartSsdConfig};

fn main() {
    let config = SmartSsdConfig::default();
    println!("Figure 3: system setup (simulated parameters)");
    println!();
    println!("  +----------------------- SmartSSD (U.2) ------------------------+");
    println!(
        "  |  NAND flash: {:.2} TB, {} ch x {} dies, {} KB pages, tR {} us     |",
        config.nand.capacity_bytes as f64 / 1e12,
        config.nand.channels,
        config.nand.dies_per_channel,
        config.nand.page_bytes / 1024,
        (config.nand.t_r_secs * 1e6) as u64
    );
    println!(
        "  |      | P2P PCIe: peak {:.1} GB/s (Fig. 6 saturation)              |",
        config.p2p.peak_bytes_per_s / 1e9
    );
    println!("  |      v                                                         |");
    println!(
        "  |  FPGA (KU15P): {} MHz, {} DSP ({} MACs), {:.2} MB on-chip      |",
        (config.fpga.clock_hz / 1e6) as u64,
        config.fpga.dsp_slices,
        config.fpga.mac_units,
        config.fpga.onchip_bytes as f64 / 1e6
    );
    println!("  |    selection kernel: quantized forward -> gradient proxies    |");
    println!("  |    -> per-class facility location (chunked to fit BRAM)       |");
    println!("  +------+-------------------------------^------------------------+");
    println!("         | subset (15-38%)               | int8 weights (feedback)");
    println!(
        "         v {:.1} GB/s                      |",
        config.host.peak_bytes_per_s / 1e9
    );
    println!("  +------------------------ host + GPU ---------------------------+");
    println!("  |  weighted-subset SGD (Nesterov 0.9, wd 5e-4, LR 0.1 / 5)      |");
    println!("  |  losses -> subset biasing; weights -> int8 -> FPGA            |");
    println!("  +----------------------------------------------------------------+");
    println!();
    // A live one-epoch timeline at CIFAR-10 scale and its Table-2 subset,
    // sized as the Figure-4 epoch model sizes it.
    let spec = DatasetSpec::by_name("CIFAR-10").expect("catalog entry");
    let fraction = spec.paper.expect("table 2 row").subset_pct as f64 / 100.0;
    let w = Workload::from_spec(&spec);
    let mut dev = SmartSsd::new(config);
    dev.install_dataset(w.samples, w.bytes_per_sample)
        .expect("fault-free device");
    dev.read_records_to_fpga(w.samples, w.bytes_per_sample)
        .expect("fault-free device");
    dev.run_selection(&w.kernel_profile(fraction))
        .expect("chunk fits");
    dev.send_subset_to_host(w.subset(fraction), w.bytes_per_sample)
        .expect("fault-free device");
    dev.receive_feedback(w.feedback_bytes())
        .expect("fault-free device");
    println!("One install + one epoch at CIFAR-10 scale:");
    print!("{}", dev.trace());
    println!("{}", dev.energy());
}
