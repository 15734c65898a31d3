//! Property tests for quantization.

use nessa_quant::schemes::{relative_error, Granularity, Scheme, SchemeQuantized};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #[test]
    fn quantize_is_idempotent(vals in prop::collection::vec(-50.0f32..50.0, 1..64)) {
        // Quantizing an already-dequantized tensor is exact: codes are
        // reproduced and a second round trip changes nothing.
        let t = Tensor::from_slice(&vals);
        let q1 = SchemeQuantized::quantize(&t, Scheme::int8());
        let back1 = q1.dequantize();
        let q2 = SchemeQuantized::quantize(&back1, Scheme::int8());
        let back2 = q2.dequantize();
        for (a, b) in back1.as_slice().iter().zip(back2.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn wider_codes_shrink_the_error_bound(
        vals in prop::collection::vec(-10.0f32..10.0, 2..48),
        b1 in 2u8..15
    ) {
        // Per-value rounding error is not monotone in step size, but the
        // worst-case bound (half a step) shrinks by ~2x per extra bit.
        let t = Tensor::from_slice(&vals);
        let narrow = SchemeQuantized::quantize(&t, Scheme { bits: b1, granularity: Granularity::PerTensor });
        let wide = SchemeQuantized::quantize(&t, Scheme { bits: b1 + 1, granularity: Granularity::PerTensor });
        prop_assert!(wide.error_bounds()[0] <= narrow.error_bounds()[0] * 0.51 + 1e-9);
        // And over many values the realized error improves too.
        if vals.len() >= 16 {
            let e_narrow = relative_error(&t, narrow.scheme());
            let e_wide = relative_error(&t, wide.scheme());
            prop_assert!(e_wide <= e_narrow * 1.5 + 1e-6);
        }
    }

    #[test]
    fn per_row_error_bounds_never_exceed_per_tensor(
        rows in 1usize..8, cols in 1usize..12, seed in any::<u64>()
    ) {
        // Rounding error on specific values is not monotone in step size,
        // but the worst-case bound (half a step) is: every row's scale is
        // at most the shared tensor scale.
        let mut rng = Rng64::new(seed);
        let t = Tensor::rand_uniform(&[rows, cols], -5.0, 5.0, &mut rng);
        let qt = SchemeQuantized::quantize(&t, Scheme { bits: 8, granularity: Granularity::PerTensor });
        let qr = SchemeQuantized::quantize(&t, Scheme { bits: 8, granularity: Granularity::PerRow });
        let tensor_bound = qt.error_bounds()[0];
        for &row_bound in &qr.error_bounds() {
            prop_assert!(row_bound <= tensor_bound + 1e-7);
        }
    }

    #[test]
    fn payload_accounts_exact_bits(n in 1usize..256, bits in 2u8..16) {
        let t = Tensor::zeros(&[n]);
        let q = SchemeQuantized::quantize(&t, Scheme { bits, granularity: Granularity::PerTensor });
        let expected = (n as u64 * bits as u64).div_ceil(8) as usize + 4;
        prop_assert_eq!(q.payload_bytes(), expected);
    }

    #[test]
    fn codes_bounded_by_width(vals in prop::collection::vec(-100.0f32..100.0, 1..40), bits in 2u8..16) {
        let t = Tensor::from_slice(&vals);
        let q = SchemeQuantized::quantize(&t, Scheme { bits, granularity: Granularity::PerTensor });
        let back = q.dequantize();
        // Round trip error within half a step of the per-group scale.
        let bound = q.error_bounds()[0] + 1e-4;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= bound);
        }
    }
}
