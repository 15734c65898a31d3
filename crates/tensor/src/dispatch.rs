//! Runtime selection of the instruction set a bit-exact kernel runs at.
//!
//! The hot kernels ([`Tensor::matmul_transb`](crate::Tensor::matmul_transb)'s
//! register tile, the backward products of
//! [`Tensor::matmul`](crate::Tensor::matmul) and
//! [`Tensor::add_matmul_transa`](crate::Tensor::add_matmul_transa), which
//! sum each row's compacted non-zero terms over a 32-column register
//! strip, the row groups of the similarity kernel
//! [`map_sq_dists`](crate::linalg::map_sq_dists), and the greedy's batch
//! and row gains in `nessa-select`) keep one in-order sum per SIMD lane,
//! so a wider register only holds more lanes: it cannot change a bit. The build targets the x86-64 baseline (SSE2),
//! whose registers are half as wide as AVX2's, and a global `target-cpu`
//! would fault on older CPUs. So a kernel is written once, as a [`Kernel`]
//! whose `run` is `#[inline(always)]`, and [`run`] executes it either as
//! compiled for the baseline or through one generic
//! `#[target_feature(enable = "avx2")]` wrapper that the body is inlined
//! into.
//!
//! Only `avx2` is enabled, never `fma`: rustc does not contract `a * b + c`
//! into a fused multiply-add, and without the `fma` feature LLVM has no
//! instruction to contract it into either, so both instances round every
//! product and every sum alike.

/// A kernel body that [`run`] can execute at more than one instruction-set
/// width.
///
/// Implementations must mark `run` `#[inline(always)]`: a callee that is
/// not inlined into the AVX2 wrapper is compiled for the baseline only, as
/// features are not inherited across calls. The body must be safe code;
/// dispatch never changes what it computes, only the registers it uses.
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel body.
    fn run(self) -> Self::Output;
}

/// Runs `kernel` at the widest instruction set this CPU supports: the AVX2
/// instance when the CPU has AVX2, the baseline instance otherwise. Both
/// give the same bits.
pub fn run<K: Kernel>(kernel: K) -> K::Output {
    run_avx2(kernel).unwrap_or_else(K::run)
}

/// Runs the AVX2 instance of `kernel`, or hands the kernel back when the
/// CPU (or the target architecture) lacks AVX2. The baseline instance is
/// [`Kernel::run`] itself; tests call both to compare them bit for bit.
///
/// # Errors
///
/// Returns `Err(kernel)`, unrun, when AVX2 is not available.
pub fn run_avx2<K: Kernel>(kernel: K) -> Result<K::Output, K> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("avx2") {
        #[allow(unsafe_code)]
        // SAFETY: the only precondition of a `#[target_feature]` function
        // is that the CPU supports the enabled features, and the branch
        // just detected AVX2 at run time. `avx2` itself is safe code.
        return Ok(unsafe { avx2(kernel) });
    }
    Err(kernel)
}

/// The AVX2 instance: `kernel.run()` inlined into a function compiled with
/// AVX2 (and nothing else) enabled.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::tensor::{pack_lanes, AddProducts, DotTile, TILE_LANES};

    /// A kernel that does nothing, to ask which instance would run.
    struct Probe;

    impl Kernel for Probe {
        type Output = ();

        #[inline(always)]
        fn run(self) {}
    }

    /// Whether the AVX2 instances run on this CPU; when they do not, says
    /// that `test` compares nothing but the baseline.
    fn avx2_available(test: &str) -> bool {
        let available = run_avx2(Probe).is_ok();
        if !available {
            println!("{test}: skipped, this CPU lacks AVX2 and runs the baseline instance only");
        }
        available
    }

    /// The AVX2 instance's result, once [`avx2_available`] said yes.
    fn avx2_instance<K: Kernel>(kernel: K) -> K::Output {
        match run_avx2(kernel) {
            Ok(out) => out,
            Err(_) => panic!("AVX2 was detected a moment ago"),
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
        let path = if run_avx2(Probe).is_ok() {
            "AVX2"
        } else {
            "baseline (this CPU lacks AVX2)"
        };
        println!("dispatch: the kernels run their {path} instance");
    }

    #[test]
    fn dispatch_dot_tile_instances_are_bit_identical() {
        if !avx2_available("dispatch_dot_tile_instances_are_bit_identical") {
            return;
        }
        // Row widths of the dense layers in `linear_kernel.rs` (32, 64,
        // 128, 192, 256, 384) and of the similarity factors in
        // `similarity_kernel.rs` (0, 1, 3, 10, 64, 256, 384).
        let mut rng = Rng64::new(41);
        for k in [0, 1, 3, 10, 32, 64, 128, 192, 256, 384] {
            for rows in [1, TILE_LANES - 1, TILE_LANES] {
                let x = awkward(rows * k, 2.0, &mut rng);
                let lanes = pack_lanes(&x, rows, k);
                let (w0, w1) = (awkward(k, 1.0, &mut rng), awkward(k, 1.0, &mut rng));
                let tile = || DotTile {
                    lanes: &lanes,
                    w0: &w0,
                    w1: &w1,
                };
                let (b0, b1) = tile().run();
                let (v0, v1) = avx2_instance(tile());
                assert_eq!(bits(&v0), bits(&b0), "k {k}, rows {rows}");
                assert_eq!(bits(&v1), bits(&b1), "k {k}, rows {rows}");
            }
        }
    }

    #[test]
    fn dispatch_add_products_instances_are_bit_identical() {
        if !avx2_available("dispatch_add_products_instances_are_bit_identical") {
            return;
        }
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
                        let (mut base, mut wide) = (from.clone(), from);
                        let product = |out| AddProducts {
                            out,
                            n,
                            a: &a,
                            row_step,
                            p_step,
                            b: &b,
                        };
                        product(&mut base).run();
                        avx2_instance(product(&mut wide));
                        let ctx = format!("n {n}, m {m}, k {k}, steps ({row_step}, {p_step})");
                        assert_eq!(bits(&wide), bits(&base), "{ctx}");
                    }
                }
            }
        }
    }
}
