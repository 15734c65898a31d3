//! 2-D convolution via im2col.

use super::{Layer, Param};
use nessa_tensor::rng::Rng64;
use nessa_tensor::Tensor;

/// 2-D convolution over `[n, c, h, w]` activations.
///
/// The kernel is square (`k × k`); implementation lowers each sample to a
/// column matrix (im2col) so the convolution is a single matrix product —
/// the same lowering used by the FPGA selection kernel in `nessa-smartssd`'s
/// resource model.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    cached_cols: Vec<Tensor>,
    cached_in_dims: Option<Vec<usize>>,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stride == 0`.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng64,
    ) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = in_ch * k * k;
        let std = (2.0 / fan_in as f32).sqrt();
        let weight = Tensor::randn(&[out_ch, fan_in], 0.0, std, rng);
        let bias = Tensor::zeros(&[out_ch]);
        Self {
            weight: Param::new(weight, true),
            bias: Param::new(bias, true),
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            cached_cols: Vec::new(),
            cached_in_dims: None,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.k) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.k) / self.stride + 1;
        (oh, ow)
    }

    /// Walks every kernel tap that lands inside an `h × w` input (padding
    /// taps are skipped) in c, ky, kx, oy, ox order, handing `f` the tap's
    /// index in the `[c*k*k, oh*ow]` column matrix and in the `[c, h, w]`
    /// image. [`Conv2d::im2col`] gathers and [`Conv2d::col2im`] scatters
    /// through this one walk.
    fn for_each_tap(&self, h: usize, w: usize, mut f: impl FnMut(usize, usize)) {
        let (oh, ow) = self.out_hw(h, w);
        let (k, stride, pad) = (self.k, self.stride, self.pad as isize);
        for c in 0..self.in_ch {
            for ky in 0..k {
                for kx in 0..k {
                    let base = ((c * k + ky) * k + kx) * oh * ow;
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let row = (c * h + iy as usize) * w;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            f(base + oy * ow + ox, row + ix as usize);
                        }
                    }
                }
            }
        }
    }

    /// Lowers one sample `[c, h, w]` (as a flat slice) to a
    /// `[c*k*k, oh*ow]` column matrix.
    fn im2col(&self, sample: &[f32], h: usize, w: usize) -> Tensor {
        let (oh, ow) = self.out_hw(h, w);
        let rows = self.in_ch * self.k * self.k;
        let mut out = vec![0.0f32; rows * oh * ow];
        self.for_each_tap(h, w, |col, img| out[col] = sample[img]);
        Tensor::from_vec(out, &[rows, oh * ow])
    }

    /// Scatters a `[c*k*k, oh*ow]` column-gradient back to a `[c, h, w]`
    /// input-gradient slice (the adjoint of [`Conv2d::im2col`]).
    fn col2im(&self, cols_t: &Tensor, h: usize, w: usize, out: &mut [f32]) {
        let data = cols_t.as_slice();
        self.for_each_tap(h, w, |col, img| out[img] += data[col]);
    }

    /// Convolves `x`, handing each sample's column matrix to `keep_col`.
    fn convolve(&self, x: &Tensor, mut keep_col: impl FnMut(Tensor)) -> Tensor {
        assert_eq!(x.ndim(), 4, "Conv2d expects [n, c, h, w]");
        assert_eq!(x.dim(1), self.in_ch, "Conv2d channel mismatch");
        let (n, h, w) = (x.dim(0), x.dim(2), x.dim(3));
        let (oh, ow) = self.out_hw(h, w);
        let plane = self.in_ch * h * w;
        let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
        let bias = self.bias.value.as_slice().to_vec();
        for i in 0..n {
            let sample = &x.as_slice()[i * plane..(i + 1) * plane];
            let col = self.im2col(sample, h, w);
            let y = self.weight.value.matmul(&col); // [out_ch, oh*ow]
            let dst =
                &mut out.as_mut_slice()[i * self.out_ch * oh * ow..(i + 1) * self.out_ch * oh * ow];
            for (oc, &b) in bias.iter().enumerate() {
                let src = &y.as_slice()[oc * oh * ow..(oc + 1) * oh * ow];
                let d = &mut dst[oc * oh * ow..(oc + 1) * oh * ow];
                for (dv, &sv) in d.iter_mut().zip(src) {
                    *dv = sv + b;
                }
            }
            keep_col(col);
        }
        out
    }
}

impl Layer for Conv2d {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.convolve(x, drop)
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cols = std::mem::take(&mut self.cached_cols);
        cols.clear();
        let out = self.convolve(x, |col| cols.push(col));
        self.cached_cols = cols;
        self.cached_in_dims = Some(x.shape().dims().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_dims = self
            .cached_in_dims
            .clone()
            .expect("Conv2d::backward before forward");
        let (n, h, w) = (in_dims[0], in_dims[2], in_dims[3]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(grad_out.shape().dims(), &[n, self.out_ch, oh, ow]);
        let mut grad_in = Tensor::zeros(&in_dims);
        let plane = self.in_ch * h * w;
        for i in 0..n {
            let g = Tensor::from_vec(
                grad_out.as_slice()[i * self.out_ch * oh * ow..(i + 1) * self.out_ch * oh * ow]
                    .to_vec(),
                &[self.out_ch, oh * ow],
            );
            let col = &self.cached_cols[i];
            // dW += g · col^T
            self.weight.grad.add_matmul_transb(&g, col);
            // db += row sums of g
            for oc in 0..self.out_ch {
                let s: f32 = g.row(oc).iter().sum();
                self.bias.grad.as_mut_slice()[oc] += s;
            }
            // dcol = W^T · g, then scatter.
            let dcol = self.weight.value.matmul_transa(&g);
            self.col2im(
                &dcol,
                h,
                w,
                &mut grad_in.as_mut_slice()[i * plane..(i + 1) * plane],
            );
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn flops_per_sample(&self, x: &Tensor) -> u64 {
        let (oh, ow) = self.out_hw(x.dim(2), x.dim(3));
        2 * self.out_ch as u64 * (self.in_ch * self.k * self.k) as u64 * (oh * ow) as u64
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::check_input_gradient;
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.visit_params(&mut |p: &mut Param| {
            if p.value.ndim() == 2 {
                p.value = Tensor::ones(&[1, 1]);
            } else {
                p.value = Tensor::zeros(&[1]);
            }
        });
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        conv.visit_params(&mut |p: &mut Param| {
            if p.value.ndim() == 2 {
                // Averaging kernel.
                p.value = Tensor::full(&[1, 9], 1.0);
            } else {
                p.value = Tensor::zeros(&[1]);
            }
        });
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x);
        // Centre pixel sees all 9 ones; corners see 4.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn stride_two_halves_spatial_size() {
        let mut rng = Rng64::new(1);
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(2);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        check_input_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(3);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x);
        let _ = conv.backward(&Tensor::ones(y.shape().dims()));
        let mut analytic = Vec::new();
        conv.visit_params(&mut |p: &mut Param| analytic.push(p.grad.clone()));
        let eps = 1e-3;
        for wi in 0..9 {
            let perturb = |delta: f32, conv: &mut Conv2d| {
                conv.visit_params(&mut |p: &mut Param| {
                    if p.value.ndim() == 2 {
                        p.value.as_mut_slice()[wi] += delta;
                    }
                });
            };
            perturb(eps, &mut conv);
            let fp = conv.forward(&x).sum();
            perturb(-2.0 * eps, &mut conv);
            let fm = conv.forward(&x).sum();
            perturb(eps, &mut conv);
            let num = (fp - fm) / (2.0 * eps);
            let ana = analytic[0].as_slice()[wi];
            assert!((num - ana).abs() < 2e-2, "w[{wi}]: numeric {num} vs {ana}");
        }
    }

    #[test]
    fn weight_gradient_accumulates_like_a_product_then_add() {
        // The backward adds `g · colᵀ` straight into `dW`; each entry must
        // be `dW + dot` bit for bit, as adding the product tensor made it.
        let mut rng = Rng64::new(9);
        for stride in 1..=3 {
            for pad in 0..=2 {
                for k in [1, 3, 5] {
                    let mut conv = Conv2d::new(2, 3, k, stride, pad, &mut rng);
                    let x = Tensor::randn(&[2, 2, 7, 6], 0.0, 1.0, &mut rng);
                    let y = conv.forward(&x);
                    let g = Tensor::randn(y.shape().dims(), 0.0, 1.0, &mut rng);
                    let start = Tensor::randn(conv.weight.grad.shape().dims(), 0.0, 1.0, &mut rng);
                    conv.weight.grad = start.clone();
                    let mut expect = start;
                    let per_sample = g.numel() / 2;
                    for (i, col) in conv.cached_cols.iter().enumerate() {
                        let gi = Tensor::from_vec(
                            g.as_slice()[i * per_sample..(i + 1) * per_sample].to_vec(),
                            &[3, per_sample / 3],
                        );
                        expect += &gi.matmul_transb(col);
                    }
                    conv.backward(&g);
                    let bits =
                        |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&conv.weight.grad),
                        bits(&expect),
                        "stride {stride}, pad {pad}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = Rng64::new(4);
        let conv = Conv2d::new(2, 1, 3, 2, 1, &mut rng);
        let (h, w) = (5, 5);
        let x = Tensor::randn(&[2 * h * w], 0.0, 1.0, &mut rng);
        let col = conv.im2col(x.as_slice(), h, w);
        let y = Tensor::randn(col.shape().dims(), 0.0, 1.0, &mut rng);
        let lhs = col.dot(&y);
        let mut back = vec![0.0f32; 2 * h * w];
        conv.col2im(&y, h, w, &mut back);
        let rhs: f32 = back.iter().zip(x.as_slice()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn flops_follow_the_input_shape() {
        let mut rng = Rng64::new(5);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        // 2 · out_ch · (in_ch · k²) · (oh · ow)
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        assert_eq!(conv.flops_per_sample(&x), 2 * 8 * 27 * 64);
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        assert_eq!(conv.flops_per_sample(&x), 2 * 8 * 27 * 16);
    }
}
