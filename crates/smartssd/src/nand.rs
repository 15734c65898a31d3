//! The NAND flash timing model.
//!
//! Reads are modelled at page granularity: each page costs a sense time
//! (`t_R`) on its die plus a transfer over its channel. Pages are striped
//! round-robin across channels, which run in parallel while each channel
//! serializes its own pages. A sequential run amortizes sensing over the
//! dies sharing a channel, so the array's sustained read bandwidth is
//! roughly `channels × page_size / max(t_R / dies, transfer_time)`. The
//! default geometry sustains ~3 GB/s internally — the "theoretical
//! 3 GBps SSD-to-FPGA" figure of paper §4.4 — so the P2P link, not the
//! flash, is the bottleneck the experiments observe.
//!
//! A *scattered* read of single pages (the pattern a host-side random
//! sampler generates) cannot amortize sensing: every page pays the full
//! `t_R` on its channel. That read amplification is what makes NeSSA's
//! sequential candidate-pool scans the right access pattern for
//! near-storage selection.

/// Flash array geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandConfig {
    /// Independent channels.
    pub channels: usize,
    /// Dies per channel (interleaving depth within a channel).
    pub dies_per_channel: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Page sense (read) latency in seconds.
    pub t_r_secs: f64,
    /// Page program (write) latency in seconds.
    pub t_prog_secs: f64,
    /// Per-channel ONFI transfer bandwidth in bytes/s.
    pub channel_bytes_per_s: f64,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
}

impl Default for NandConfig {
    fn default() -> Self {
        Self {
            channels: 8,
            dies_per_channel: 4,
            page_bytes: 16 * 1024,
            t_r_secs: 60e-6,
            t_prog_secs: 600e-6,
            channel_bytes_per_s: 500e6,
            capacity_bytes: 3_840_000_000_000, // 3.84 TB (paper §2.2)
        }
    }
}

impl NandConfig {
    /// Seconds to read `bytes` of sequentially laid-out data, with pages
    /// striped across all channels and dies. Returns `0.0` for zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the configured capacity.
    pub fn read_secs(&self, bytes: u64) -> f64 {
        self.striped_secs("read", bytes, self.t_r_secs)
    }

    /// Seconds to program (write) `bytes` of sequentially laid-out data,
    /// striped like reads but paying the much larger `t_PROG` per page.
    /// Used when a dataset is first installed on the drive. Returns `0.0`
    /// for zero bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the configured capacity.
    pub fn program_secs(&self, bytes: u64) -> f64 {
        self.striped_secs("write", bytes, self.t_prog_secs)
    }

    /// Seconds to read an arbitrary set of single pages by index: each
    /// page pays the full `t_R` plus its transfer on its channel.
    ///
    /// # Panics
    ///
    /// Panics if any page lies beyond the configured capacity.
    pub fn scattered_read_secs(&self, pages: &[usize]) -> f64 {
        let capacity_pages = self.capacity_bytes / self.page_bytes as u64;
        let mut per_channel = vec![0u32; self.channels];
        for &page in pages {
            assert!((page as u64) < capacity_pages, "page {page} out of range");
            per_channel[page % self.channels] += 1;
        }
        let xfer = self.page_bytes as f64 / self.channel_bytes_per_s;
        per_channel
            .iter()
            .map(|&n| n as f64 * (self.t_r_secs + xfer))
            .fold(0.0, f64::max)
    }

    /// A sequential run of pages, each costing `t_page` on its die: the
    /// first page pays its full latency plus transfer (pipeline fill),
    /// after which each channel moves one page per `max(t_page / dies,
    /// transfer)`.
    fn striped_secs(&self, op: &str, bytes: u64, t_page: f64) -> f64 {
        assert!(
            bytes <= self.capacity_bytes,
            "{op} of {bytes} bytes exceeds {}-byte capacity",
            self.capacity_bytes
        );
        if bytes == 0 {
            return 0.0;
        }
        let pages = bytes.div_ceil(self.page_bytes as u64);
        let xfer_per_page = self.page_bytes as f64 / self.channel_bytes_per_s;
        let per_page = (t_page / self.dies_per_channel as f64).max(xfer_per_page);
        let pages_per_channel = (pages as f64 / self.channels as f64).ceil();
        t_page + xfer_per_page + (pages_per_channel - 1.0).max(0.0) * per_page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_reads_sustain_about_3gbps() {
        let bytes = 1_000_000_000u64;
        let bw = bytes as f64 / NandConfig::default().read_secs(bytes);
        assert!((2.5e9..4.5e9).contains(&bw), "effective bandwidth {bw}");
    }

    #[test]
    fn small_reads_pay_latency() {
        // Must pay at least one full page sense.
        assert!(NandConfig::default().read_secs(4096) >= 60e-6);
    }

    #[test]
    fn read_time_is_monotone_in_size() {
        let nand = NandConfig::default();
        let mut prev = 0.0;
        for bytes in [1u64 << 12, 1 << 16, 1 << 20, 1 << 24] {
            let t = nand.read_secs(bytes);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn programming_is_slower_than_reading() {
        let nand = NandConfig::default();
        let bytes = 100_000_000u64;
        let r = nand.read_secs(bytes);
        let w = nand.program_secs(bytes);
        assert!(w > r, "program {w}s should exceed read {r}s");
    }

    #[test]
    fn zero_work_is_free() {
        let nand = NandConfig::default();
        assert_eq!(nand.read_secs(0), 0.0);
        assert_eq!(nand.program_secs(0), 0.0);
        assert_eq!(nand.scattered_read_secs(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_reads_beyond_capacity() {
        let _ = NandConfig::default().read_secs(u64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_scattered_pages_beyond_capacity() {
        let _ = NandConfig::default().scattered_read_secs(&[usize::MAX]);
    }

    #[test]
    fn sequential_beats_scattered() {
        let nand = NandConfig::default();
        let seq = nand.read_secs(256 * nand.page_bytes as u64);
        let pages: Vec<usize> = (0..256).collect();
        let scat = nand.scattered_read_secs(&pages);
        assert!(
            scat > 2.0 * seq,
            "scattered {scat}s should cost well over sequential {seq}s"
        );
    }

    /// Pins the exact times `ablation`'s flash-access study prints: one
    /// CIFAR-10 epoch (9 375 pages) scanned sequentially, against a 28 %
    /// random sample read scattered.
    #[test]
    fn ablation_flash_access_times_are_pinned() {
        let nand = NandConfig::default();
        let pages = 9_375;
        let seq = nand.read_secs(pages as u64 * nand.page_bytes as u64);
        let sample = nessa_tensor::rng::Rng64::new(2023).sample_indices(pages, pages * 28 / 100);
        let scat = nand.scattered_read_secs(&sample);
        assert_eq!(seq.to_bits(), 4585704081465002208, "{seq}");
        assert_eq!(scat.to_bits(), 4584733114032252413, "{scat}");
    }
}
