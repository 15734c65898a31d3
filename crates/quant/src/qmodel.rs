//! Whole-network quantized snapshots — the payload of NeSSA's feedback
//! loop.

use crate::schemes::{Scheme, SchemeQuantized};
use nessa_nn::models::Network;

/// An int8 snapshot of every parameter of a network.
///
/// This is what travels GPU → FPGA after each training round (paper
/// §3.2.1). [`QuantizedModel::apply_to`] materializes the dequantized
/// weights into a structurally-identical network — the "selector model" the
/// FPGA then runs forward passes with.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel {
    tensors: Vec<SchemeQuantized>,
}

impl QuantizedModel {
    /// Quantizes all parameters of `net` under [`Scheme::int8`]
    /// (per-tensor symmetric int8).
    pub fn from_network(net: &mut Network) -> Self {
        let tensors = net
            .export_weights()
            .into_iter()
            .map(|t| SchemeQuantized::quantize(&t, Scheme::int8()))
            .collect();
        Self { tensors }
    }

    /// Loads the dequantized weights into `target`, which must have the
    /// same parameter structure as the source network.
    ///
    /// # Panics
    ///
    /// Panics if the parameter count or any shape differs.
    pub fn apply_to(&self, target: &mut Network) {
        let weights: Vec<_> = self
            .tensors
            .iter()
            .map(SchemeQuantized::dequantize)
            .collect();
        target.import_weights(&weights);
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Bytes this snapshot occupies on the interconnect.
    pub fn payload_bytes(&self) -> usize {
        self.tensors
            .iter()
            .map(SchemeQuantized::payload_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nessa_nn::models::mlp;
    use nessa_tensor::rng::Rng64;
    use nessa_tensor::Tensor;

    #[test]
    fn snapshot_round_trip_is_close() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let snap = QuantizedModel::from_network(&mut net);
        let mut clone = mlp(&[8, 16, 4], &mut rng);
        snap.apply_to(&mut clone);
        let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut rng);
        let exact = net.infer(&x);
        let approx = clone.infer(&x);
        for (a, b) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((a - b).abs() < 0.15, "{a} vs {b}");
        }
    }

    #[test]
    fn payload_is_about_quarter_of_f32() {
        let mut rng = Rng64::new(2);
        let mut net = mlp(&[32, 64, 10], &mut rng);
        let snap = QuantizedModel::from_network(&mut net);
        let f32_bytes: usize = net.export_weights().iter().map(|w| 4 * w.numel()).sum();
        let ratio = snap.payload_bytes() as f64 / f32_bytes as f64;
        assert!(ratio < 0.27, "ratio {ratio}");
        assert!(!snap.is_empty());
        assert_eq!(snap.len(), 4); // two Linear layers × (weight, bias)
    }

    #[test]
    fn apply_preserves_predictions_after_training_signal() {
        // Quantize → apply must keep argmax predictions on easy inputs.
        let mut rng = Rng64::new(3);
        let mut net = mlp(&[4, 12, 3], &mut rng);
        let x = Tensor::randn(&[16, 4], 0.0, 2.0, &mut rng);
        let before = net.predict(&x);
        let snap = QuantizedModel::from_network(&mut net);
        let mut selector = mlp(&[4, 12, 3], &mut rng);
        snap.apply_to(&mut selector);
        let after = selector.predict(&x);
        let agree = before.iter().zip(&after).filter(|(a, b)| a == b).count();
        assert!(agree >= 14, "only {agree}/16 predictions preserved");
    }

    #[test]
    fn apply_to_a_warm_selector_matches_a_fresh_one_bit_for_bit() {
        // The selector has run forward passes, then receives a snapshot:
        // it must compute exactly what a network that only ever saw the
        // snapshot computes.
        let mut rng = Rng64::new(5);
        let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut rng);
        let mut selector = mlp(&[8, 16, 4], &mut rng);
        let before = selector.forward(&x);
        let snap = QuantizedModel::from_network(&mut mlp(&[8, 16, 4], &mut rng));
        snap.apply_to(&mut selector);
        let mut fresh = mlp(&[8, 16, 4], &mut rng);
        snap.apply_to(&mut fresh);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let after = selector.infer(&x);
        assert_ne!(bits(&after), bits(&before));
        assert_eq!(bits(&after), bits(&fresh.infer(&x)));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn apply_rejects_wrong_structure() {
        let mut rng = Rng64::new(4);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let snap = QuantizedModel::from_network(&mut net);
        let mut other = mlp(&[8, 17, 4], &mut rng);
        snap.apply_to(&mut other);
    }
}
