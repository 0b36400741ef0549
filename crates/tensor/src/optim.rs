//! Gradient-descent optimizers.
//!
//! The per-parameter update loops are the axpy and Adam [`kernels`].

use crate::kernels;
use crate::{Layer, Tensor};

/// Plain stochastic gradient descent with an optional gradient-norm clip.
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f32,
    clip_norm: Option<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            clip_norm: None,
        }
    }

    /// Enables global gradient-norm clipping.
    pub fn with_clip_norm(mut self, clip_norm: f32) -> Self {
        self.clip_norm = Some(clip_norm);
        self
    }

    /// Learning rate currently in use.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Applies one update step to every parameter of `model`.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let scale = clip_scale(model, self.clip_norm);
        let lr = self.learning_rate;
        model.visit_params(&mut |param, grad| {
            // p -= lr·scale·g, as y += alpha·x with alpha = -(lr·scale):
            // negating a product is exact, so this matches the historical
            // subtraction loop bit for bit.
            kernels::axpy(-(lr * scale), grad.as_slice(), param.as_mut_slice());
        });
    }
}

/// Adam optimizer (Kingma & Ba, 2015) — the optimizer used for every neural
/// baseline in the paper (§3.4, fixed learning rate 1e-5).
///
/// Moment buffers are allocated lazily on the first step and keyed by the
/// order in which [`Layer::visit_params`] visits the parameters, which is
/// stable for all layers in this crate.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    clip_norm: Option<f32>,
    step_count: u64,
    moments: Vec<(Tensor, Tensor)>,
}

impl Adam {
    /// Creates an Adam optimizer with standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            clip_norm: None,
            step_count: 0,
            moments: Vec::new(),
        }
    }

    /// Enables global gradient-norm clipping.
    pub fn with_clip_norm(mut self, clip_norm: f32) -> Self {
        self.clip_norm = Some(clip_norm);
        self
    }

    /// Learning rate currently in use.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Number of update steps applied so far.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Applies one Adam update to every parameter of `model`.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let scale = clip_scale(model, self.clip_norm);
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.learning_rate, self.beta1, self.beta2, self.epsilon);
        let moments = &mut self.moments;
        let mut index = 0usize;
        model.visit_params(&mut |param, grad| {
            if moments.len() <= index {
                moments.push((Tensor::zeros(param.shape()), Tensor::zeros(param.shape())));
            }
            let (m, v) = &mut moments[index];
            debug_assert_eq!(m.shape(), param.shape(), "optimizer state shape drift");
            kernels::adam_update(
                param.as_mut_slice(),
                grad.as_slice(),
                m.as_mut_slice(),
                v.as_mut_slice(),
                scale,
                lr,
                b1,
                b2,
                eps,
                bias1,
                bias2,
            );
            index += 1;
        });
    }
}

/// Computes the scale factor implementing global gradient-norm clipping.
fn clip_scale(model: &mut dyn Layer, clip_norm: Option<f32>) -> f32 {
    let Some(max_norm) = clip_norm else {
        return 1.0;
    };
    let mut total = 0.0f32;
    model.visit_params(&mut |_, grad| total += kernels::norm_sq(grad.as_slice()));
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        max_norm / norm
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu, Sequential};
    use crate::loss::mse_loss;
    use crate::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_problem() -> (Sequential, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Sequential::new(vec![
            Box::new(Linear::new(2, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 1, &mut rng)),
        ]);
        // Learn y = x0 - x1 on four points.
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let y = Tensor::from_vec(vec![0.0, -1.0, 1.0, 0.0], &[4, 1]).unwrap();
        (model, x, y)
    }

    fn train(
        model: &mut Sequential,
        x: &Tensor,
        y: &Tensor,
        opt: &mut dyn FnMut(&mut Sequential),
        epochs: usize,
    ) -> f32 {
        let mut last = f32::INFINITY;
        for _ in 0..epochs {
            model.zero_grad();
            let pred = model.forward(x).unwrap();
            let (loss, grad) = mse_loss(&pred, y).unwrap();
            model.backward(&grad).unwrap();
            opt(model);
            last = loss;
        }
        last
    }

    #[test]
    fn adam_reduces_loss_on_toy_regression() {
        let (mut model, x, y) = toy_problem();
        let initial = {
            let pred = model.forward(&x).unwrap();
            mse_loss(&pred, &y).unwrap().0
        };
        let mut adam = Adam::new(1e-2);
        let final_loss = train(&mut model, &x, &y, &mut |m| adam.step(m), 300);
        assert!(
            final_loss < initial * 0.1,
            "adam failed to learn: {initial} -> {final_loss}"
        );
        assert_eq!(adam.step_count(), 300);
    }

    #[test]
    fn sgd_reduces_loss_on_toy_regression() {
        let (mut model, x, y) = toy_problem();
        let initial = {
            let pred = model.forward(&x).unwrap();
            mse_loss(&pred, &y).unwrap().0
        };
        let mut sgd = Sgd::new(5e-2);
        let final_loss = train(&mut model, &x, &y, &mut |m| sgd.step(m), 300);
        assert!(
            final_loss < initial,
            "sgd failed to reduce loss: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn clipping_bounds_the_update_magnitude() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = Sequential::new(vec![Box::new(Linear::new(1, 1, &mut rng))]);
        // Build a huge gradient by hand.
        model.visit_params(&mut |_, g| g.map_inplace(|_| 1e6));
        let before: Vec<f32> = {
            let mut v = Vec::new();
            model.visit_params(&mut |p, _| v.extend_from_slice(p.as_slice()));
            v
        };
        let mut sgd = Sgd::new(1.0).with_clip_norm(1.0);
        sgd.step(&mut model);
        let mut after = Vec::new();
        model.visit_params(&mut |p, _| after.extend_from_slice(p.as_slice()));
        let delta: f32 = before
            .iter()
            .zip(after.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(delta <= 1.0 + 1e-4, "clipped update too large: {delta}");
    }

    #[test]
    fn adam_state_tracks_parameter_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(3, 4, &mut rng)),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        let mut adam = Adam::new(1e-3);
        let x = Tensor::ones(&[2, 3]);
        for _ in 0..3 {
            model.zero_grad();
            let pred = model.forward(&x).unwrap();
            let (_, grad) = mse_loss(&pred, &Tensor::zeros(pred.shape())).unwrap();
            model.backward(&grad).unwrap();
            adam.step(&mut model);
        }
        // Two layers × (weight, bias) = 4 moment slots.
        assert_eq!(adam.moments.len(), 4);
    }
}
