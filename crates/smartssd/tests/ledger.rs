//! Pins the device ledger bit for bit: simulated seconds, every traffic
//! path and the energy total with its per-component split, for the phase
//! sequences the paper binaries and the pipeline's fallback ladder run.

use nessa_smartssd::fpga::KernelProfile;
use nessa_smartssd::{SmartSsd, SmartSsdConfig, SsdCluster, TrafficStats};

const COMPONENTS: [&str; 3] = ["ssd", "fpga", "link"];

fn profile() -> KernelProfile {
    KernelProfile {
        samples: 50_000,
        forward_macs_per_sample: 640,
        proxy_dim: 10,
        chunk: 457,
        k_per_chunk: 128,
    }
}

/// `[elapsed, ssd_to_fpga, fpga_to_host, host_to_fpga, staged_to_host,
/// total J, ssd J, fpga J, link J]`, floats as their bits.
fn ledger(elapsed: f64, t: TrafficStats, total_j: f64, parts: [f64; 3]) -> [u64; 9] {
    [
        elapsed.to_bits(),
        t.ssd_to_fpga,
        t.fpga_to_host,
        t.host_to_fpga,
        t.staged_to_host,
        total_j.to_bits(),
        parts[0].to_bits(),
        parts[1].to_bits(),
        parts[2].to_bits(),
    ]
}

fn drive_ledger(dev: &SmartSsd) -> [u64; 9] {
    let energy = dev.energy();
    ledger(
        dev.elapsed_secs(),
        dev.traffic(),
        energy.total_joules(),
        COMPONENTS.map(|c| energy.joules_for(c)),
    )
}

/// Figure 3's sequence: install, then one epoch of scan, select, ship
/// and feedback at CIFAR-10 scale.
#[test]
fn fig3_sequence_ledger_is_pinned() {
    let mut dev = SmartSsd::new(SmartSsdConfig::default());
    dev.install_dataset(50_000, 3_000).unwrap();
    dev.read_records_to_fpga(50_000, 3_000).unwrap();
    dev.run_selection(&profile()).unwrap();
    dev.send_subset_to_host(14_000, 3_000).unwrap();
    dev.receive_feedback(272_000 / 4).unwrap();
    assert_eq!(
        drive_ledger(&dev),
        [
            4599688760412947883,
            150000000,
            42000000,
            150068000,
            0,
            4613502674802042069,
            4612755375442750508,
            4598923791337926405,
            4585970608670290447,
        ]
    );
}

/// The host-fallback order: a link phase (feedback) draws power before
/// the first FPGA phase, so the components appear as ssd, link, fpga.
#[test]
fn host_fallback_ledger_is_pinned() {
    let mut dev = SmartSsd::new(SmartSsdConfig::default());
    dev.conventional_read_to_host(20_000, 3_000).unwrap();
    dev.receive_feedback(68_000).unwrap();
    dev.run_selection(&profile()).unwrap();
    assert_eq!(
        drive_ledger(&dev),
        [
            4593439433848726682,
            0,
            0,
            68000,
            60000000,
            4607351312197432737,
            4604893637999677695,
            4598923791337926405,
            4543020031225637161,
        ]
    );
}

/// A 2-drive cluster that loses one drive mid-run: the retired drive's
/// bytes and joules stay in the totals.
#[test]
fn cluster_ledger_after_eviction_is_pinned() {
    let mut c = SsdCluster::new(2, SmartSsdConfig::default());
    c.parallel_scan(50_000, 3_000).unwrap();
    c.parallel_select(&profile()).unwrap();
    c.gather_selections(14_000, 3_000).unwrap();
    c.broadcast_feedback(68_000).unwrap();
    c.stall_all(0.25);
    assert!(c.evict_drive(0));
    c.conventional_read_to_host(50_000, 3_000).unwrap();
    c.parallel_scan(50_000, 3_000).unwrap();
    c.parallel_select(&profile()).unwrap();
    c.gather_selections(14_000, 3_000).unwrap();
    let parts = COMPONENTS.map(|comp| {
        c.drives()
            .iter()
            .chain(c.retired_drives())
            .map(|d| d.energy().joules_for(comp))
            .sum::<f64>()
    });
    let got = ledger(c.elapsed_secs(), c.traffic(), c.energy_joules(), parts);
    assert_eq!(
        got,
        [
            4604569675053712648,
            300000000,
            84000000,
            136000,
            150000000,
            4616615034693896943,
            4615545830096454226,
            4603427390965296901,
            4590474928873601323,
        ]
    );
}
