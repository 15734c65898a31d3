//! The quantizer: symmetric codes of a configurable bit width with
//! per-tensor or per-row (per-output-channel) scales.
//!
//! The paper fixes symmetric per-tensor int8 ([`Scheme::int8`]), which is
//! what the feedback snapshots use. The rest of the design space (4/8/16
//! bits, per-tensor vs per-channel) trades feedback-transfer bytes against
//! selector fidelity, and the feedback-precision ablation quantifies that.

use nessa_tensor::Tensor;

/// How to derive quantization scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One scale for the whole tensor.
    PerTensor,
    /// One scale per row of a 2-D tensor (per output channel); 1-D tensors
    /// fall back to per-tensor.
    PerRow,
}

/// A quantization scheme: symmetric, `bits`-wide codes with the chosen
/// scale granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme {
    /// Code width in bits (2..=16); codes span `±(2^(bits−1) − 1)`.
    pub bits: u8,
    /// Scale granularity.
    pub granularity: Granularity,
}

impl Scheme {
    /// The paper's scheme: symmetric per-tensor int8.
    pub fn int8() -> Self {
        Self {
            bits: 8,
            granularity: Granularity::PerTensor,
        }
    }

    /// Maximum positive code.
    pub fn q_max(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Payload bits per element.
    pub fn bits_per_element(&self) -> u32 {
        self.bits as u32
    }
}

/// A tensor quantized under an arbitrary [`Scheme`]. Codes are stored as
/// `i16` regardless of the logical width (the simulator charges the wire
/// for `bits` per element, not the in-memory width).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeQuantized {
    scheme: Scheme,
    dims: Vec<usize>,
    codes: Vec<i16>,
    /// One scale per row group (len 1 for per-tensor).
    scales: Vec<f32>,
}

impl SchemeQuantized {
    /// Quantizes a tensor under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if `scheme.bits` is outside `2..=16`.
    pub fn quantize(t: &Tensor, scheme: Scheme) -> Self {
        assert!(
            (2..=16).contains(&scheme.bits),
            "bits must be in 2..=16, got {}",
            scheme.bits
        );
        let q_max = scheme.q_max() as f32;
        let (groups, group_len) = match scheme.granularity {
            Granularity::PerRow if t.ndim() == 2 => (t.dim(0), t.dim(1)),
            _ => (1, t.numel()),
        };
        let mut scales = Vec::with_capacity(groups);
        let mut codes = Vec::with_capacity(t.numel());
        for g in 0..groups {
            let slice = &t.as_slice()[g * group_len..(g + 1) * group_len];
            let max_abs = slice.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / q_max };
            scales.push(scale);
            let inv = 1.0 / scale;
            codes.extend(
                slice
                    .iter()
                    .map(|&v| (v * inv).round().clamp(-q_max, q_max) as i16),
            );
        }
        Self {
            scheme,
            dims: t.shape().dims().to_vec(),
            codes,
            scales,
        }
    }

    /// Reconstructs the f32 tensor.
    pub fn dequantize(&self) -> Tensor {
        let group_len = self.codes.len() / self.scales.len();
        let mut out = Vec::with_capacity(self.codes.len());
        for (g, &scale) in self.scales.iter().enumerate() {
            out.extend(
                self.codes[g * group_len..(g + 1) * group_len]
                    .iter()
                    .map(|&q| q as f32 * scale),
            );
        }
        Tensor::from_vec(out, &self.dims)
    }

    /// The scheme in use.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Bytes on the wire: `bits` per element (bit-packed) plus one f32
    /// scale per group.
    pub fn payload_bytes(&self) -> usize {
        let code_bits = self.codes.len() as u64 * self.scheme.bits_per_element() as u64;
        (code_bits.div_ceil(8)) as usize + 4 * self.scales.len()
    }

    /// Worst-case absolute error per group (half a step).
    pub fn error_bounds(&self) -> Vec<f32> {
        self.scales.iter().map(|s| 0.5 * s).collect()
    }
}

/// Relative Frobenius reconstruction error of quantizing `t` under
/// `scheme` (`0.0` for an all-zero tensor).
pub fn relative_error(t: &Tensor, scheme: Scheme) -> f32 {
    let q = SchemeQuantized::quantize(t, scheme);
    let back = q.dequantize();
    let diff = t
        .try_zip(&back, "relative_error", |a, b| a - b)
        .expect("same shape by construction");
    let n = t.norm();
    if n == 0.0 {
        0.0
    } else {
        diff.norm() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_tensor::rng::Rng64;

    #[test]
    fn int8_per_tensor_contract_is_bit_exact() {
        // The feedback format: scale `max|x| / 127`, codes `round(x / scale)`
        // (no clamping needed at this scale), `q · scale` on the way back,
        // and one byte per element plus the f32 scale on the wire.
        let mut rng = Rng64::new(0);
        let t = Tensor::rand_uniform(&[8, 8], -2.0, 2.0, &mut rng);
        let q = SchemeQuantized::quantize(&t, Scheme::int8());
        let max_abs = t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        assert_eq!(q.scales.len(), 1);
        assert_eq!(q.scales[0].to_bits(), scale.to_bits());
        let back = q.dequantize();
        for ((&v, &c), &b) in t.as_slice().iter().zip(&q.codes).zip(back.as_slice()) {
            let code = (v * (1.0 / scale)).round();
            assert_eq!((c as f32).to_bits(), code.to_bits(), "{v}");
            assert_eq!(b.to_bits(), (code * scale).to_bits(), "{v}");
        }
        assert_eq!(q.payload_bytes(), t.numel() + 4);
    }

    #[test]
    fn int8_zero_tensor_round_trips_exactly() {
        let t = Tensor::zeros(&[4, 4]);
        let q = SchemeQuantized::quantize(&t, Scheme::int8());
        assert_eq!(q.dequantize().as_slice(), t.as_slice());
        assert_eq!(q.scales, vec![1.0]);
    }

    #[test]
    fn int8_extremes_map_to_127() {
        let t = Tensor::from_slice(&[-2.0, 0.0, 2.0]);
        let q = SchemeQuantized::quantize(&t, Scheme::int8());
        assert_eq!(q.codes, vec![-127, 0, 127]);
    }

    #[test]
    fn int8_round_trip_error_within_half_a_step() {
        let mut rng = Rng64::new(0);
        let t = Tensor::rand_uniform(&[20, 20], -3.0, 3.0, &mut rng);
        let q = SchemeQuantized::quantize(&t, Scheme::int8());
        let back = q.dequantize();
        let bound = q.error_bounds()[0] + 1e-6;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn more_bits_less_error() {
        let mut rng = Rng64::new(1);
        let t = Tensor::randn(&[16, 16], 0.0, 1.0, &mut rng);
        let mut prev = f32::INFINITY;
        for bits in [4u8, 8, 12, 16] {
            let e = relative_error(
                &t,
                Scheme {
                    bits,
                    granularity: Granularity::PerTensor,
                },
            );
            assert!(e < prev, "bits {bits}: {e} !< {prev}");
            prev = e;
        }
    }

    #[test]
    fn per_row_beats_per_tensor_on_heterogeneous_rows() {
        // Rows with wildly different magnitudes: a shared scale wastes
        // codes on the small rows.
        let mut data = Vec::new();
        for r in 0..8 {
            let scale = 10f32.powi(r - 4);
            for c in 0..16 {
                data.push(scale * ((c as f32) / 8.0 - 1.0));
            }
        }
        let t = Tensor::from_vec(data, &[8, 16]);
        let e_tensor = relative_error(
            &t,
            Scheme {
                bits: 8,
                granularity: Granularity::PerTensor,
            },
        );
        let e_row = relative_error(
            &t,
            Scheme {
                bits: 8,
                granularity: Granularity::PerRow,
            },
        );
        // Global relative error improves, and the small-magnitude rows —
        // crushed to zero by the shared scale — are recovered.
        assert!(e_row < e_tensor, "row {e_row} vs tensor {e_tensor}");
        let qt = SchemeQuantized::quantize(
            &t,
            Scheme {
                bits: 8,
                granularity: Granularity::PerTensor,
            },
        );
        let qr = SchemeQuantized::quantize(
            &t,
            Scheme {
                bits: 8,
                granularity: Granularity::PerRow,
            },
        );
        let small_row = 0; // magnitude 1e-4 vs row 7's 1e3
        let bt = qt.dequantize();
        let br = qr.dequantize();
        let err = |b: &Tensor| -> f32 {
            t.row(small_row)
                .iter()
                .zip(b.row(small_row))
                .map(|(&a, &x)| (a - x).abs())
                .sum()
        };
        assert!(err(&br) < 0.01 * err(&bt).max(1e-9) || err(&bt) == 0.0);
    }

    #[test]
    fn payload_scales_with_bits() {
        let t = Tensor::zeros(&[100]);
        let p4 = SchemeQuantized::quantize(
            &t,
            Scheme {
                bits: 4,
                granularity: Granularity::PerTensor,
            },
        )
        .payload_bytes();
        let p8 = SchemeQuantized::quantize(&t, Scheme::int8()).payload_bytes();
        let p16 = SchemeQuantized::quantize(
            &t,
            Scheme {
                bits: 16,
                granularity: Granularity::PerTensor,
            },
        )
        .payload_bytes();
        assert_eq!(p4, 50 + 4);
        assert_eq!(p8, 100 + 4);
        assert_eq!(p16, 200 + 4);
    }

    #[test]
    fn error_within_bound() {
        let mut rng = Rng64::new(2);
        let t = Tensor::rand_uniform(&[4, 12], -5.0, 5.0, &mut rng);
        let q = SchemeQuantized::quantize(
            &t,
            Scheme {
                bits: 6,
                granularity: Granularity::PerRow,
            },
        );
        let back = q.dequantize();
        let bounds = q.error_bounds();
        for (r, &bound) in bounds.iter().enumerate() {
            for (a, b) in t.row(r).iter().zip(back.row(r)) {
                assert!((a - b).abs() <= bound + 1e-5);
            }
        }
    }

    #[test]
    fn per_row_on_1d_falls_back_to_per_tensor() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let q = SchemeQuantized::quantize(
            &t,
            Scheme {
                bits: 8,
                granularity: Granularity::PerRow,
            },
        );
        assert_eq!(q.error_bounds().len(), 1);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn rejects_bad_width() {
        let _ = SchemeQuantized::quantize(
            &Tensor::zeros(&[2]),
            Scheme {
                bits: 1,
                granularity: Granularity::PerTensor,
            },
        );
    }
}
