//! Spatial pooling layers.

use super::Layer;
use nessa_tensor::Tensor;

/// Global average pooling: `[n, c, h, w]` → `[n, c]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_in_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 4, "GlobalAvgPool expects [n, c, h, w]");
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let hw = (h * w) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let s: f32 = x.as_slice()[base..base + h * w].iter().sum();
                out.as_mut_slice()[ni * c + ci] = s / hw;
            }
        }
        out
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.infer(x);
        self.cached_in_dims = Some(x.shape().dims().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_in_dims
            .as_ref()
            .expect("GlobalAvgPool::backward before forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = (h * w) as f32;
        let mut grad_in = Tensor::zeros(dims);
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_out.as_slice()[ni * c + ci] / hw;
                let base = (ni * c + ci) * h * w;
                for v in &mut grad_in.as_mut_slice()[base..base + h * w] {
                    *v = g;
                }
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "globalavgpool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_averages() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[4.0]);
    }

    #[test]
    fn gap_backward_spreads_gradient() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let _ = p.forward(&x);
        let g = p.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]));
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
