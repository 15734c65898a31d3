//! Runtime selection of the instruction set a bit-exact kernel runs at.
//!
//! The hot kernels ([`Tensor::matmul_transb`](crate::Tensor::matmul_transb)'s
//! register tile, the backward products of
//! [`Tensor::matmul`](crate::Tensor::matmul) and
//! [`Tensor::add_matmul_transa`](crate::Tensor::add_matmul_transa), the row
//! groups of the similarity kernel
//! [`map_sq_dists`](crate::linalg::map_sq_dists), the greedy's row gains in
//! `nessa-select` and the SGD update in `nessa-nn`) keep one in-order sum
//! per SIMD lane, so a wider register only holds more lanes: it cannot
//! change a bit. The build targets the x86-64 baseline (SSE2), and a
//! global `target-cpu` would fault on older CPUs. So a kernel is written
//! once, as a [`Kernel`] whose `run` is `#[inline(always)]`, and [`run`]
//! executes it at one of three [`Level`]s: as compiled for the baseline, or
//! through one generic `#[target_feature]` wrapper per wider level, which
//! the body is inlined into:
//!
//! | level | registers | forward tile (16 rows ×) |
//! |---|---|---|
//! | [`Level::Baseline`] (SSE2) | 16 × 16 bytes | 2 weight rows |
//! | [`Level::Avx2`] | 16 × 32 bytes | 4 weight rows |
//! | [`Level::Avx512`] (AVX-512F) | 32 × 64 bytes | 8 weight rows |
//!
//! A kernel is told its level, which is a constant in each instance, so a
//! tile shape can depend on it; the sums it computes cannot.
//!
//! No instance fuses a multiply into an add. The AVX2 wrapper enables
//! `avx2` alone, so LLVM has no fused multiply-add to emit. In rustc,
//! `avx512f` implies `fma`, so the AVX-512 instance could hold one; it
//! does not because rustc never marks `a * b + c` as contractable (only
//! `mul_add` asks for a fused result, and no kernel calls it), and LLVM
//! fuses only contractable pairs. Every instance therefore rounds every
//! product and every sum alike, and the dispatch tests pin a dot whose
//! fused result differs at every level.

/// An instruction-set level a [`Kernel`] runs at, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The x86-64 baseline, SSE2: sixteen 16-byte vector registers. Every
    /// CPU and every target architecture runs it.
    Baseline,
    /// AVX2: sixteen 32-byte vector registers.
    Avx2,
    /// AVX-512F: thirty-two 64-byte vector registers.
    Avx512,
}

impl Level {
    /// Every level, narrowest first.
    pub const ALL: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512];

    /// The widest level this CPU supports: `Avx512` needs every feature
    /// the `avx512f` wrapper enables, which in rustc includes `avx2`,
    /// `fma` and `f16c`.
    pub fn widest() -> Level {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::is_x86_feature_detected!("avx2") {
            let avx512 = std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("fma")
                && std::is_x86_feature_detected!("f16c");
            return if avx512 { Level::Avx512 } else { Level::Avx2 };
        }
        Level::Baseline
    }
}

/// A kernel body that [`run`] can execute at more than one instruction-set
/// level.
///
/// Implementations must mark `run` `#[inline(always)]`: a callee that is
/// not inlined into a wrapper is compiled for the baseline only, as
/// features are not inherited across calls. The body must be safe code;
/// its `level` may pick a tile shape, but every level must compute the
/// same bits.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The widest level [`run`] executes this kernel at. A kernel whose
    /// wider instance measures slower sets it lower; [`run_at`] ignores
    /// it, so tests still compare every level.
    const WIDEST: Level = Level::Avx512;

    /// Runs the kernel body, compiled for `level`.
    fn run(self, level: Level) -> Self::Output;
}

/// Runs `kernel` at the widest level this CPU supports, up to
/// [`Kernel::WIDEST`]. Every level gives the same bits.
pub fn run<K: Kernel>(kernel: K) -> K::Output {
    match run_at(Level::widest().min(K::WIDEST), kernel) {
        Ok(out) => out,
        Err(kernel) => kernel.run(Level::Baseline),
    }
}

/// Runs the `level` instance of `kernel`, or hands the kernel back when
/// the CPU (or the target architecture) lacks that level. Tests call every
/// level to compare them bit for bit.
///
/// # Errors
///
/// Returns `Err(kernel)`, unrun, when `level` is wider than
/// [`Level::widest`].
pub fn run_at<K: Kernel>(level: Level, kernel: K) -> Result<K::Output, K> {
    if level > Level::widest() {
        return Err(kernel);
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[allow(unsafe_code)]
    // SAFETY: the only precondition of a `#[target_feature]` function is
    // that the CPU supports the enabled features, and the check above
    // found `level` no wider than what `Level::widest` detected on this
    // CPU: `avx512f` with the `avx2`, `fma` and `f16c` it implies for
    // `Avx512`, `avx2` for `Avx2`. The wrappers themselves are safe code.
    unsafe {
        match level {
            Level::Avx512 => return Ok(avx512(kernel)),
            Level::Avx2 => return Ok(avx2(kernel)),
            Level::Baseline => {}
        }
    }
    Ok(kernel.run(Level::Baseline))
}

/// The AVX2 instance: `kernel.run` inlined into a function compiled with
/// AVX2 (and nothing else) enabled.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run(Level::Avx2)
}

/// The AVX-512 instance: `kernel.run` inlined into a function compiled
/// with AVX-512F enabled (which implies AVX2 and, in rustc, `fma`).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run(Level::Avx512)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::tensor::{pack_lanes, AddProducts, TransbBlock, TILE_LANES};

    /// The levels wider than the baseline that this CPU runs; says which
    /// ones `test` skips.
    fn wider_levels(test: &str) -> Vec<Level> {
        let (run, skip): (Vec<Level>, Vec<Level>) = Level::ALL[1..]
            .iter()
            .partition(|&&level| level <= Level::widest());
        for level in skip {
            println!("{test}: {level:?} skipped, this CPU lacks it");
        }
        run
    }

    /// The `level` instance's result, once [`wider_levels`] said it runs.
    fn instance<K: Kernel>(level: Level, kernel: K) -> K::Output {
        match run_at(level, kernel) {
            Ok(out) => out,
            Err(_) => panic!("{level:?} was detected a moment ago"),
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `len` values: uniform in `[-scale, scale)`, with about a tenth each
    /// `+0.0`, `-0.0` and subnormal.
    fn awkward(len: usize, scale: f32, rng: &mut Rng64) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.index(10) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.uniform(-1.0, 1.0) * f32::MIN_POSITIVE,
                _ => rng.uniform(-scale, scale),
            })
            .collect()
    }

    #[test]
    fn dispatch_path_is_reported() {
        println!(
            "dispatch: this CPU runs the {:?} instances",
            Level::widest()
        );
    }

    #[test]
    fn dispatch_transb_block_instances_are_bit_identical() {
        let levels = wider_levels("dispatch_transb_block_instances_are_bit_identical");
        // Row widths of the dense layers in `linear_kernel.rs` (32, 64,
        // 128, 192, 256, 384) and a few short ones; weight-row counts that
        // take every tile shape from 8 rows down to 1; full and partial
        // blocks; plain and accumulating stores.
        let mut rng = Rng64::new(41);
        for k in [1, 3, 10, 32, 64, 128, 192, 256, 384] {
            for n in [1, 2, 3, 7, 8, 15, 16, 21] {
                for rows in [1, TILE_LANES - 1, TILE_LANES] {
                    let lanes = pack_lanes(&awkward(rows * k, 2.0, &mut rng), rows, k);
                    let b = awkward(n * k, 1.0, &mut rng);
                    let start = awkward(rows * n, 1.0, &mut rng);
                    for add in [false, true] {
                        let mut base = start.clone();
                        let mut wide = vec![start.clone(); levels.len()];
                        let block = |out| TransbBlock {
                            lanes: &lanes,
                            b: &b,
                            out,
                            store: |o: &mut f32, dot| *o = if add { *o + dot } else { dot },
                        };
                        block(&mut base).run(Level::Baseline);
                        for (&level, wide) in levels.iter().zip(&mut wide) {
                            instance(level, block(wide));
                        }
                        for (level, wide) in levels.iter().zip(&wide) {
                            let at = format!("{level:?}, k {k}, n {n}, rows {rows}, add {add}");
                            assert_eq!(bits(wide), bits(&base), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_add_products_instances_are_bit_identical() {
        let levels = wider_levels("dispatch_add_products_instances_are_bit_identical");
        // Output widths around the 32-column strip, into zeroed and awkward
        // outputs, with the contiguous coefficients of `matmul` (row `i` is
        // row `i` of `a`) and the strided ones of `add_matmul_transa` (row
        // `i` is column `i` of `a`).
        let mut rng = Rng64::new(42);
        for n in [1, 7, 8, 31, 32, 33, 63, 64, 65, 100, 384] {
            for (m, k) in [(1, 0), (3, 0), (1, 1), (3, 5), (4, 16), (2, 40)] {
                let b = awkward(k * n, 3.0, &mut rng);
                let a = awkward(m * k, 1.0, &mut rng);
                let start = awkward(m * n, 1.0, &mut rng);
                for (row_step, p_step) in [(k, 1), (1, m)] {
                    for from in [vec![0.0; m * n], start.clone()] {
                        let mut base = from.clone();
                        let mut wide = vec![from; levels.len()];
                        let product = |out| AddProducts {
                            out,
                            n,
                            a: &a,
                            row_step,
                            p_step,
                            b: &b,
                        };
                        product(&mut base).run(Level::Baseline);
                        for (&level, wide) in levels.iter().zip(&mut wide) {
                            instance(level, product(wide));
                        }
                        for (level, wide) in levels.iter().zip(&wide) {
                            let ctx = format!(
                                "{level:?}, n {n}, m {m}, k {k}, steps ({row_step}, {p_step})"
                            );
                            assert_eq!(bits(wide), bits(&base), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// A two-term dot whose fused multiply-add differs from its separately
    /// rounded sum: `x₀·w₀ = 1 + 2⁻¹¹` exactly, and `x₁·w₁ = −(1 + 2⁻¹¹ +
    /// 2⁻²⁴)` rounds (a tie, to even) to `−(1 + 2⁻¹¹)`. Rounded apart, the
    /// sum is `+0.0`; fused, `−2⁻²⁴`.
    const FMA_TRIPWIRE: ([f32; 2], [f32; 2]) = (
        [1.0 + 1.0 / 2048.0, 1.0 + 1.0 / 4096.0],
        [1.0, -(1.0 + 1.0 / 4096.0)],
    );

    #[test]
    fn dispatch_kernels_never_fuse_a_multiply_into_an_add() {
        let ([x0, x1], [w0, w1]) = FMA_TRIPWIRE;
        let separate = x0 * w0 + x1 * w1;
        assert_eq!(separate.to_bits(), 0.0f32.to_bits());
        assert_eq!(x1.mul_add(w1, x0 * w0), -(2.0f32.powi(-24)));
        // The forward tile: every lane holds `x`, and 15 weight rows hold
        // `w`, so every tile shape from 8 rows down to 1 sums it.
        let lanes = pack_lanes(&[x0, x1].repeat(TILE_LANES), TILE_LANES, 2);
        let b = [w0, w1].repeat(15);
        // The backward products: one output row with coefficients `x` over
        // two rows of `b` that hold `w` in every column.
        let n = 40;
        let rows: Vec<f32> = [vec![w0; n], vec![w1; n]].concat();
        for level in Level::ALL {
            let mut out = vec![f32::NAN; TILE_LANES * 15];
            let tile = TransbBlock {
                lanes: &lanes,
                b: &b,
                out: &mut out,
                store: |o: &mut f32, dot| *o = dot,
            };
            let mut sums = vec![0.0; n];
            let product = AddProducts {
                out: &mut sums,
                n,
                a: &[x0, x1],
                row_step: 2,
                p_step: 1,
                b: &rows,
            };
            if run_at(level, tile).is_err() || run_at(level, product).is_err() {
                println!("dispatch_kernels_never_fuse_a_multiply_into_an_add: {level:?} skipped, this CPU lacks it");
                continue;
            }
            assert!(
                out.iter().all(|v| v.to_bits() == separate.to_bits()),
                "{level:?}: {out:?}"
            );
            assert!(
                sums.iter().all(|v| v.to_bits() == separate.to_bits()),
                "{level:?}: {sums:?}"
            );
        }
    }
}
