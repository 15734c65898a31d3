//! SGD with Nesterov momentum and the paper's learning-rate schedule.
//!
//! The paper trains every model with batch size 128, initial learning rate
//! 0.1 divided by 5 at epochs 60/120/160 (of 200), weight decay `5e-4`, and
//! Nesterov momentum 0.9 (§4.1). [`SgdConfig::default`] encodes those
//! hyper-parameters; [`MultiStepLr::paper_schedule`] encodes the schedule,
//! scaling the milestones when an experiment runs fewer epochs.

use crate::models::Network;
use nessa_tensor::dispatch::{self, Kernel, Level};
use nessa_tensor::Tensor;

/// Hyper-parameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Momentum coefficient (paper: 0.9).
    pub momentum: f32,
    /// L2 weight decay (paper: 5e-4), applied to every parameter.
    pub weight_decay: f32,
    /// Use Nesterov momentum (paper: yes).
    pub nesterov: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            momentum: 0.9,
            weight_decay: 5e-4,
            nesterov: true,
        }
    }
}

/// Stochastic gradient descent with (Nesterov) momentum and weight decay.
///
/// The update follows the standard formulation: with gradient `g` (weight
/// decay folded in), velocity `v ← μv + g`, and step `g + μv` under
/// Nesterov or `v` otherwise.
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer; velocity buffers are allocated lazily on the
    /// first [`Sgd::step`].
    pub fn new(config: SgdConfig) -> Self {
        Self {
            config,
            velocity: Vec::new(),
        }
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Applies one update to every parameter of `net` using the gradients
    /// accumulated by the most recent backward pass, then leaves gradients
    /// untouched (call [`Network::zero_grad`] before the next pass).
    pub fn step(&mut self, net: &mut Network, lr: f32) {
        let cfg = self.config;
        let velocity = &mut self.velocity;
        let mut i = 0;
        net.visit_params(&mut |p| {
            if velocity.len() <= i {
                velocity.push(Tensor::zeros(p.value.shape().dims()));
            }
            dispatch::run(SgdUpdate {
                w: p.value.as_mut_slice(),
                grad: p.grad.as_slice(),
                v: velocity[i].as_mut_slice(),
                wd: cfg.weight_decay,
                mu: cfg.momentum,
                step: -lr,
                nesterov: cfg.nesterov,
            });
            i += 1;
        });
    }
}

/// One parameter's update in [`Sgd::step`], one pass over its elements,
/// each in the order of the textbook update: `g = grad + wd·w`; `v = v·μ +
/// g`; then `w += −lr·(g + μ·v)` under Nesterov, or `w += −lr·v`. Every
/// element is independent, so each dispatched level computes the same
/// bits.
struct SgdUpdate<'a> {
    w: &'a mut [f32],
    grad: &'a [f32],
    v: &'a mut [f32],
    wd: f32,
    mu: f32,
    /// `−lr`.
    step: f32,
    nesterov: bool,
}

impl Kernel for SgdUpdate<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self, _: Level) {
        let Self {
            w,
            grad,
            v,
            wd,
            mu,
            step,
            nesterov,
        } = self;
        for ((w, &grad), v) in w.iter_mut().zip(grad).zip(v) {
            let g = if wd != 0.0 { grad + wd * *w } else { grad };
            *v = *v * mu + g;
            *w += step * if nesterov { g + mu * *v } else { *v };
        }
    }
}

/// A multi-step learning-rate schedule: `base_lr` multiplied by `gamma`
/// after each milestone epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStepLr {
    base_lr: f32,
    gamma: f32,
    milestones: Vec<usize>,
}

impl MultiStepLr {
    /// Creates a schedule from explicit milestones.
    pub fn new(base_lr: f32, gamma: f32, milestones: Vec<usize>) -> Self {
        Self {
            base_lr,
            gamma,
            milestones,
        }
    }

    /// The paper's schedule — LR 0.1 divided by 5 at epochs 60/120/160 of
    /// 200 — rescaled proportionally to `total_epochs`.
    pub fn paper_schedule(total_epochs: usize) -> Self {
        let scale = |m: usize| m * total_epochs / 200;
        Self::new(0.1, 0.2, vec![scale(60), scale(120), scale(160)])
    }

    /// Replaces the base learning rate, keeping gamma and milestones
    /// (models far from the paper's ResNet scale need a different
    /// starting point on the same decay shape).
    pub fn with_base_lr(mut self, base_lr: f32) -> Self {
        self.base_lr = base_lr;
        self
    }

    /// Learning rate for a (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.base_lr * self.gamma.powi(passed as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;
    use nessa_tensor::rng::Rng64;
    use nessa_tensor::Tensor;

    #[test]
    fn with_base_lr_rescales_but_keeps_decay_shape() {
        let paper = MultiStepLr::paper_schedule(200);
        let scaled = MultiStepLr::paper_schedule(200).with_base_lr(0.02);
        assert!((scaled.lr_at(0) - 0.02).abs() < 1e-9);
        for e in [0, 59, 60, 119, 120, 159, 160, 199] {
            // Same decay multiplier at every epoch: ratio stays 0.02 / 0.1.
            let ratio = scaled.lr_at(e) / paper.lr_at(e);
            assert!((ratio - 0.2).abs() < 1e-6, "epoch {e}: ratio {ratio}");
        }
    }

    /// One-parameter quadratic: loss = 0.5 * w²; gradient = w.
    fn quadratic_step(net: &mut Network, opt: &mut Sgd, lr: f32) -> f32 {
        let mut w0 = 0.0;
        net.zero_grad();
        net.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                w0 = p.value.as_slice()[0];
                p.grad = p.value.clone();
            }
        });
        opt.step(net, lr);
        w0
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut rng = Rng64::new(0);
        let mut net = mlp(&[1, 1], &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            momentum: 0.0,
            weight_decay: 0.0,
            nesterov: false,
        });
        let mut prev = f32::INFINITY;
        for _ in 0..30 {
            let w = quadratic_step(&mut net, &mut opt, 0.1).abs();
            assert!(w <= prev + 1e-6);
            prev = w;
        }
        assert!(prev < 0.1);
    }

    #[test]
    fn plain_momentum_matches_hand_rolled_update() {
        let mut rng = Rng64::new(1);
        let mut net = mlp(&[1, 1], &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            nesterov: false,
        });
        let mut w = 0.0;
        net.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                w = p.value.as_slice()[0];
            }
        });
        let mut v = 0.0f32;
        let mut w_ref = w;
        for _ in 0..5 {
            let g = w_ref; // quadratic gradient
            v = 0.9 * v + g;
            w_ref -= 0.05 * v;
            quadratic_step(&mut net, &mut opt, 0.05);
        }
        let mut w_actual = 0.0;
        net.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                w_actual = p.value.as_slice()[0];
            }
        });
        assert!((w_actual - w_ref).abs() < 1e-5, "{w_actual} vs {w_ref}");
    }

    #[test]
    fn nesterov_differs_from_plain_momentum() {
        let mut rng = Rng64::new(2);
        let mut a = mlp(&[1, 1], &mut rng);
        let mut b = mlp(&[1, 1], &mut rng);
        // Give both nets identical weights.
        let w = a.export_weights();
        b.import_weights(&w);
        let mut oa = Sgd::new(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            nesterov: true,
        });
        let mut ob = Sgd::new(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            nesterov: false,
        });
        for _ in 0..3 {
            quadratic_step(&mut a, &mut oa, 0.05);
            quadratic_step(&mut b, &mut ob, 0.05);
        }
        let (mut wa, mut wb) = (0.0, 0.0);
        a.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                wa = p.value.as_slice()[0];
            }
        });
        b.visit_params(&mut |p| {
            if p.value.ndim() == 2 {
                wb = p.value.as_slice()[0];
            }
        });
        assert!((wa - wb).abs() > 1e-7);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = Rng64::new(3);
        let mut net = mlp(&[2, 2], &mut rng);
        let before: f32 = net.export_weights().iter().map(Tensor::sq_norm).sum();
        let mut opt = Sgd::new(SgdConfig {
            momentum: 0.0,
            weight_decay: 0.1,
            nesterov: false,
        });
        net.zero_grad();
        opt.step(&mut net, 0.5);
        let after: f32 = net.export_weights().iter().map(Tensor::sq_norm).sum();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn dispatch_sgd_update_instances_are_bit_identical() {
        fn update<'a>(
            (w, v): &'a mut (Vec<f32>, Vec<f32>),
            grad: &'a [f32],
            wd: f32,
            nesterov: bool,
        ) -> SgdUpdate<'a> {
            SgdUpdate {
                w,
                grad,
                v,
                wd,
                mu: 0.9,
                step: -0.05,
                nesterov,
            }
        }
        // Lengths around the register widths, with and without decay and
        // Nesterov; velocities that start at zero and that do not.
        let mut rng = Rng64::new(44);
        let mut skipped = Vec::new();
        for len in [0, 1, 7, 15, 16, 17, 33, 384] {
            let mut random = |scale| Tensor::randn(&[len], 0.0, scale, &mut rng).into_vec();
            let (w, grad, v) = (random(1.0), random(0.1), random(0.01));
            for (wd, nesterov, v) in [
                (5e-4, true, v.clone()),
                (0.0, true, v.clone()),
                (5e-4, false, vec![0.0; len]),
                (0.0, false, v),
            ] {
                let mut base = (w.clone(), v.clone());
                update(&mut base, &grad, wd, nesterov).run(Level::Baseline);
                let (base_w, base_v) = base;
                for level in [Level::Avx2, Level::Avx512] {
                    let mut wide = (w.clone(), v.clone());
                    let ran =
                        dispatch::run_at(level, update(&mut wide, &grad, wd, nesterov)).is_ok();
                    let (wide_w, wide_v) = wide;
                    if !ran {
                        skipped.push(level);
                        continue;
                    }
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let at = format!("{level:?}, len {len}, wd {wd}, nesterov {nesterov}");
                    assert_eq!(bits(&wide_w), bits(&base_w), "{at}");
                    assert_eq!(bits(&wide_v), bits(&base_v), "{at}");
                }
            }
        }
        skipped.sort();
        skipped.dedup();
        for level in skipped {
            println!("dispatch_sgd_update_instances_are_bit_identical: {level:?} skipped, this CPU lacks it");
        }
    }

    #[test]
    fn paper_schedule_divides_by_five() {
        let s = MultiStepLr::paper_schedule(200);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(59) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(60) - 0.02).abs() < 1e-7);
        assert!((s.lr_at(120) - 0.004).abs() < 1e-7);
        assert!((s.lr_at(160) - 0.0008).abs() < 1e-7);
        assert!((s.lr_at(199) - 0.0008).abs() < 1e-7);
    }

    #[test]
    fn paper_schedule_rescales() {
        let s = MultiStepLr::paper_schedule(50);
        // Milestones 15/30/40.
        assert!((s.lr_at(14) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(15) - 0.02).abs() < 1e-7);
        assert!((s.lr_at(40) - 0.0008).abs() < 1e-7);
    }
}
