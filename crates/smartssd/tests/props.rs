//! Property tests for the device simulator.

use nessa_smartssd::fpga::{FpgaSpec, KernelProfile};
use nessa_smartssd::nand::NandConfig;
use nessa_smartssd::{LinkModel, SmartSsd, SmartSsdConfig};
use proptest::prelude::*;

proptest! {
    #[test]
    fn link_time_is_monotone(
        r1 in 1u64..10_000, r2 in 1u64..10_000,
        b1 in 1u64..1_000_000, b2 in 1u64..1_000_000
    ) {
        for link in [LinkModel::p2p(), LinkModel::host_staged(), LinkModel::fpga_host()] {
            let (rl, rh) = (r1.min(r2), r1.max(r2));
            let (bl, bh) = (b1.min(b2), b1.max(b2));
            prop_assert!(link.batch_time_s(rl, bl) <= link.batch_time_s(rh, bl));
            prop_assert!(link.batch_time_s(rl, bl) <= link.batch_time_s(rl, bh));
        }
    }

    #[test]
    fn effective_throughput_never_exceeds_peak(records in 1u64..5_000, bytes in 1u64..500_000) {
        for link in [LinkModel::p2p(), LinkModel::host_staged(), LinkModel::fpga_host()] {
            let t = link.effective_bytes_per_s(records, bytes);
            prop_assert!(t <= link.peak_bytes_per_s + 1.0);
            prop_assert!(t > 0.0);
        }
    }

    #[test]
    fn device_clock_is_monotone_and_additive(
        ops in prop::collection::vec((1u64..2_000, 100u64..50_000), 1..12)
    ) {
        let mut dev = SmartSsd::new(SmartSsdConfig::default());
        let mut sum = 0.0;
        for (records, bytes) in ops {
            let before = dev.elapsed_secs();
            let t = dev.read_records_to_fpga(records, bytes).unwrap();
            sum += t;
            prop_assert!(dev.elapsed_secs() >= before);
            prop_assert!(t >= 0.0);
        }
        prop_assert!((dev.elapsed_secs() - sum).abs() < 1e-6 * sum.max(1.0));
    }

    #[test]
    fn traffic_bytes_are_conserved(
        scans in prop::collection::vec((1u64..500, 10u64..5_000), 1..8)
    ) {
        let mut dev = SmartSsd::new(SmartSsdConfig::default());
        let expected: u64 = scans.iter().map(|&(r, b)| r * b).sum();
        for (r, b) in scans {
            dev.read_records_to_fpga(r, b).unwrap();
        }
        prop_assert_eq!(dev.traffic().ssd_to_fpga, expected);
    }

    #[test]
    fn kernel_time_scales_with_samples(
        s1 in 1u64..100_000, s2 in 1u64..100_000, macs in 1u64..10_000
    ) {
        let spec = FpgaSpec::default();
        let (lo, hi) = (s1.min(s2), s1.max(s2));
        let p = |samples| KernelProfile {
            samples,
            forward_macs_per_sample: macs,
            proxy_dim: 10,
            chunk: 256,
            k_per_chunk: 64,
        };
        prop_assert!(
            p(lo).execute_time_s(&spec).unwrap() <= p(hi).execute_time_s(&spec).unwrap() + 1e-12
        );
    }

    #[test]
    fn max_chunk_always_fits(proxy_dim in 1usize..512) {
        let spec = FpgaSpec::default();
        let max = KernelProfile::max_chunk_for(&spec, proxy_dim);
        let p = KernelProfile {
            samples: 1,
            forward_macs_per_sample: 1,
            proxy_dim,
            chunk: max,
            k_per_chunk: 1,
        };
        prop_assert!(p.check_fit(&spec).is_ok());
    }

    #[test]
    fn sequential_read_time_monotone_in_pages(
        p1 in 1usize..2_000, p2 in 1usize..2_000
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let nand = NandConfig::default();
        let page = nand.page_bytes as u64;
        prop_assert!(nand.read_secs(lo as u64 * page) <= nand.read_secs(hi as u64 * page) + 1e-12);
    }

}
