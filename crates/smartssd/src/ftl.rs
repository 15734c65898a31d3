//! A page-level flash translation layer (FTL).
//!
//! The drive exposes a logical page space mapped one-to-one onto physical
//! pages striped round-robin across channels; there is no read-disturb
//! wear model and no remapping. The FTL prices access patterns: a
//! *sequential* run of logical pages hits all channels in parallel, while
//! a *random* scatter of single pages pays per-page sense latency with
//! little interleaving — the read-amplification that makes NeSSA's
//! sequential candidate-pool scans the right access pattern for
//! near-storage selection.

use crate::nand::NandConfig;

/// Page-level FTL state over a [`NandConfig`] geometry.
#[derive(Debug, Clone)]
pub struct Ftl {
    config: NandConfig,
    /// Total logical pages exposed.
    pages: usize,
}

impl Ftl {
    /// Formats an FTL exposing `pages` logical pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero or exceeds the device capacity.
    pub fn format(config: NandConfig, pages: usize) -> Self {
        assert!(pages > 0, "need at least one page");
        let logical_bytes = (pages as u64).checked_mul(config.page_bytes as u64);
        assert!(
            logical_bytes.is_some_and(|b| b <= config.capacity_bytes),
            "logical space exceeds device capacity"
        );
        Self { config, pages }
    }

    /// The channel a page lives on (pages are striped round-robin across
    /// channels).
    pub fn channel_of(&self, page: usize) -> usize {
        page % self.config.channels
    }

    /// Reads a run of logical pages and returns the modelled seconds.
    ///
    /// Timing: each channel serializes its own pages; channels run in
    /// parallel. A page costs `t_R` (amortized over the channel's dies for
    /// back-to-back reads) plus its bus transfer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the logical space.
    pub fn read_pages(&self, first: usize, count: usize) -> f64 {
        assert!(first + count <= self.pages, "read beyond logical space");
        if count == 0 {
            return 0.0;
        }
        let mut per_channel = vec![0u32; self.config.channels];
        for page in first..first + count {
            per_channel[self.channel_of(page)] += 1;
        }
        self.time_for(&per_channel)
    }

    /// Reads an arbitrary set of logical pages (the random-access pattern
    /// a host-side sampler would generate), returning modelled seconds.
    ///
    /// # Panics
    ///
    /// Panics if any page is out of range.
    pub fn read_scattered(&self, logical_pages: &[usize]) -> f64 {
        let mut per_channel = vec![0u32; self.config.channels];
        for &page in logical_pages {
            assert!(page < self.pages, "page {page} out of range");
            per_channel[self.channel_of(page)] += 1;
        }
        // Scattered reads cannot amortize sensing across a die pipeline:
        // every page pays the full t_R on its channel.
        let xfer = self.config.page_bytes as f64 / self.config.channel_bytes_per_s;
        per_channel
            .iter()
            .map(|&n| n as f64 * (self.config.t_r_secs + xfer))
            .fold(0.0, f64::max)
    }

    fn time_for(&self, per_channel: &[u32]) -> f64 {
        let sense = self.config.t_r_secs / self.config.dies_per_channel as f64;
        let xfer = self.config.page_bytes as f64 / self.config.channel_bytes_per_s;
        let per_page = sense.max(xfer);
        per_channel
            .iter()
            .map(|&n| {
                if n == 0 {
                    0.0
                } else {
                    // Pipeline fill + steady state.
                    self.config.t_r_secs + xfer + (n as f64 - 1.0) * per_page
                }
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> Ftl {
        Ftl::format(NandConfig::default(), 1024)
    }

    #[test]
    fn sequential_beats_scattered() {
        let a = small_ftl();
        let b = small_ftl();
        let seq = a.read_pages(0, 256);
        let pages: Vec<usize> = (0..256).collect();
        let scat = b.read_scattered(&pages);
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
        let pages = 9_375;
        let seq = Ftl::format(NandConfig::default(), pages).read_pages(0, pages);
        let sample = nessa_tensor::rng::Rng64::new(2023).sample_indices(pages, pages * 28 / 100);
        let scat = Ftl::format(NandConfig::default(), pages).read_scattered(&sample);
        assert_eq!(seq.to_bits(), 4585704081465002208, "{seq}");
        assert_eq!(scat.to_bits(), 4584733114032252413, "{scat}");
    }

    #[test]
    fn zero_and_bounds() {
        let ftl = small_ftl();
        assert_eq!(ftl.read_pages(0, 0), 0.0);
        assert_eq!(ftl.read_scattered(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "beyond logical space")]
    fn rejects_out_of_range_run() {
        let ftl = small_ftl();
        let _ = ftl.read_pages(1000, 100);
    }

    #[test]
    #[should_panic(expected = "exceeds device capacity")]
    fn rejects_oversized_format() {
        let _ = Ftl::format(NandConfig::default(), usize::MAX / 2);
    }

    #[test]
    fn channel_striping_is_round_robin() {
        let ftl = small_ftl();
        let channels = NandConfig::default().channels;
        for p in 0..32 {
            assert_eq!(ftl.channel_of(p), p % channels);
        }
    }
}
