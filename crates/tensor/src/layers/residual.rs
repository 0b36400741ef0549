//! Residual convolutional block used by the autoencoder baseline.

use rand::rngs::StdRng;

use crate::layers::{Conv1d, Relu};
use crate::profile::ComputeProfile;
use crate::{Layer, Tensor, TensorError};

/// A ResNet-style block for 1-D sequences:
/// `out = ReLU(conv2(ReLU(conv1(x))) + proj(x))`.
///
/// Both convolutions preserve the time length (kernel 3, stride 1, padding 1).
/// When the channel counts differ, a 1×1 projection convolution adapts the
/// skip connection, as in He et al. (2016).
///
/// The same-padded convolutions couple every output column to the window
/// edges, so the block has no incremental streaming path:
/// [`Layer::make_incremental_cache`] refuses it with the trait default.
#[derive(Debug)]
pub struct ResidualConvBlock {
    conv1: Conv1d,
    relu1: Relu,
    conv2: Conv1d,
    projection: Option<Conv1d>,
    relu_out: Relu,
    cached_input: Option<Tensor>,
}

impl ResidualConvBlock {
    /// Creates a block mapping `in_channels` to `out_channels` feature maps.
    pub fn new(in_channels: usize, out_channels: usize, rng: &mut StdRng) -> Self {
        let projection = if in_channels != out_channels {
            Some(Conv1d::new(in_channels, out_channels, 1, 1, 0, rng))
        } else {
            None
        };
        Self {
            conv1: Conv1d::new(in_channels, out_channels, 3, 1, 1, rng),
            relu1: Relu::new(),
            conv2: Conv1d::new(out_channels, out_channels, 3, 1, 1, rng),
            projection,
            relu_out: Relu::new(),
            cached_input: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.conv1.in_channels()
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.conv1.out_channels()
    }
}

impl Layer for ResidualConvBlock {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let h = self.conv1.forward(input)?;
        let h = self.relu1.forward(&h)?;
        let h = self.conv2.forward(&h)?;
        let skip = match &mut self.projection {
            Some(proj) => proj.forward(input)?,
            None => input.clone(),
        };
        let sum = h.add(&skip)?;
        self.cached_input = Some(input.clone());
        self.relu_out.forward(&sum)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let h = self.conv1.forward_infer(input)?;
        let h = self.relu1.forward_infer(&h)?;
        let h = self.conv2.forward_infer(&h)?;
        let skip = match &self.projection {
            Some(proj) => proj.forward_infer(input)?,
            None => input.clone(),
        };
        self.relu_out.forward_infer(&h.add(&skip)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        if self.cached_input.is_none() {
            return Err(TensorError::BackwardBeforeForward {
                layer: "residual_conv_block",
            });
        }
        let grad_sum = self.relu_out.backward(grad_output)?;
        // Branch through conv2 -> relu1 -> conv1.
        let g = self.conv2.backward(&grad_sum)?;
        let g = self.relu1.backward(&g)?;
        let grad_main = self.conv1.backward(&g)?;
        // Skip branch.
        let grad_skip = match &mut self.projection {
            Some(proj) => proj.backward(&grad_sum)?,
            None => grad_sum,
        };
        grad_main.add(&grad_skip)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.conv1.visit_params(visitor);
        self.conv2.visit_params(visitor);
        if let Some(proj) = &mut self.projection {
            proj.visit_params(visitor);
        }
    }

    fn visit_tensors(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Tensor)) {
        self.conv1
            .visit_tensors(&crate::join_tensor_name(prefix, "conv1"), visitor);
        self.conv2
            .visit_tensors(&crate::join_tensor_name(prefix, "conv2"), visitor);
        if let Some(proj) = &self.projection {
            proj.visit_tensors(&crate::join_tensor_name(prefix, "projection"), visitor);
        }
    }

    fn visit_tensors_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Tensor)) {
        self.conv1
            .visit_tensors_mut(&crate::join_tensor_name(prefix, "conv1"), visitor);
        self.conv2
            .visit_tensors_mut(&crate::join_tensor_name(prefix, "conv2"), visitor);
        if let Some(proj) = &mut self.projection {
            proj.visit_tensors_mut(&crate::join_tensor_name(prefix, "projection"), visitor);
        }
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_channels(), input_shape[2]]
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let mid_shape = self.conv1.output_shape(input_shape);
        let mut p = self
            .conv1
            .profile(input_shape)
            .combine(&self.relu1.profile(&mid_shape))
            .combine(&self.conv2.profile(&mid_shape));
        if let Some(proj) = &self.projection {
            p = p.combine(&proj.profile(input_shape));
        }
        p.combine(&self.relu_out.profile(&mid_shape))
    }

    fn name(&self) -> &'static str {
        "residual_conv_block"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::{finite_difference_grad, relative_error};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn preserves_time_length_and_maps_channels() {
        let mut block = ResidualConvBlock::new(4, 6, &mut rng());
        let x = Tensor::ones(&[2, 4, 10]);
        let y = block.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 6, 10]);
        assert_eq!(block.output_shape(&[2, 4, 10]), vec![2, 6, 10]);
    }

    #[test]
    fn identity_skip_used_when_channels_match() {
        let block = ResidualConvBlock::new(3, 3, &mut rng());
        assert!(block.projection.is_none());
        let block = ResidualConvBlock::new(3, 5, &mut rng());
        assert!(block.projection.is_some());
    }

    #[test]
    fn output_is_non_negative_due_to_final_relu() {
        let mut block = ResidualConvBlock::new(2, 2, &mut rng());
        let x = Tensor::from_vec(
            (0..20).map(|i| (i as f32 * 0.3).sin()).collect(),
            &[1, 2, 10],
        )
        .unwrap();
        let y = block.forward(&x).unwrap();
        assert!(y.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let base = ResidualConvBlock::new(2, 3, &mut rng());
        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.41).sin()).collect();
        let mut loss_fn = |xs: &[f32]| {
            let mut b = ResidualConvBlock {
                conv1: base.conv1.clone(),
                relu1: Relu::new(),
                conv2: base.conv2.clone(),
                projection: base.projection.clone(),
                relu_out: Relu::new(),
                cached_input: None,
            };
            let t = Tensor::from_vec(xs.to_vec(), &[1, 2, 6]).unwrap();
            b.forward(&t).unwrap().norm_sq()
        };
        let numeric = finite_difference_grad(&mut loss_fn, &x, 1e-3);
        let mut b = ResidualConvBlock {
            conv1: base.conv1.clone(),
            relu1: Relu::new(),
            conv2: base.conv2.clone(),
            projection: base.projection.clone(),
            relu_out: Relu::new(),
            cached_input: None,
        };
        let t = Tensor::from_vec(x.clone(), &[1, 2, 6]).unwrap();
        let y = b.forward(&t).unwrap();
        let analytic = b.backward(&y.scale(2.0)).unwrap();
        assert!(relative_error(analytic.as_slice(), &numeric) < 2e-2);
    }

    #[test]
    fn param_count_includes_projection() {
        let mut same = ResidualConvBlock::new(4, 4, &mut rng());
        let mut diff = ResidualConvBlock::new(4, 8, &mut rng());
        // same: conv1 (4*4*3+4) + conv2 (4*4*3+4) = 104
        assert_eq!(same.param_count(), 104);
        // diff adds 1x1 projection: conv1 (8*4*3+8)=104, conv2 (8*8*3+8)=200, proj (8*4*1+8)=40
        assert_eq!(diff.param_count(), 104 + 200 + 40);
    }

    #[test]
    fn backward_before_forward_is_rejected() {
        let mut block = ResidualConvBlock::new(2, 2, &mut rng());
        assert!(block.backward(&Tensor::zeros(&[1, 2, 4])).is_err());
    }
}
