//! Sequential container chaining layers.

use crate::layers::incremental::{cache_mismatch, CacheNode, IncrementalCache, StreamStep};
use crate::profile::ComputeProfile;
use crate::{Layer, Tensor, TensorError};

/// A container that applies layers in order and back-propagates in reverse.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use varade_tensor::{layers::{Linear, Relu, Sequential}, Layer, Tensor};
///
/// # fn main() -> Result<(), varade_tensor::TensorError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = Sequential::new(vec![
///     Box::new(Linear::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Linear::new(8, 1, &mut rng)),
/// ]);
/// let y = model.forward(&Tensor::zeros(&[2, 4]))?;
/// assert_eq!(y.shape(), &[2, 1]);
/// # Ok(())
/// # }
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({names:?})")
    }
}

impl Sequential {
    /// Creates a container from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Creates an empty container to be extended with [`Sequential::push`].
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer to the end of the pipeline.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Human-readable per-layer summary (name and output shape) for a given
    /// input shape — the equivalent of Keras' `model.summary()` used to
    /// reproduce Figure 1.
    pub fn summary(&self, input_shape: &[usize]) -> Vec<(String, Vec<usize>)> {
        let mut shape = input_shape.to_vec();
        let mut rows = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
            rows.push((layer.name().to_string(), shape.clone()));
        }
        rows
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let mut current = input.clone();
        for layer in &mut self.layers {
            current = layer.forward(&current)?;
        }
        Ok(current)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let mut current = input.clone();
        for layer in &self.layers {
            current = layer.forward_infer(&current)?;
        }
        Ok(current)
    }

    fn make_incremental_cache(
        &self,
        input_shape: &[usize],
    ) -> Result<IncrementalCache, TensorError> {
        let mut shape = input_shape.to_vec();
        let mut children = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            children.push(layer.make_incremental_cache(&shape)?);
            shape = layer.output_shape(&shape);
        }
        Ok(IncrementalCache::seq(children))
    }

    fn forward_incremental(
        &self,
        step: StreamStep,
        cache: &mut IncrementalCache,
    ) -> Result<Option<StreamStep>, TensorError> {
        let CacheNode::Seq(children) = &mut cache.node else {
            return Err(cache_mismatch("sequential"));
        };
        if children.len() != self.layers.len() {
            return Err(cache_mismatch("sequential"));
        }
        let mut current = Some(step);
        for (layer, child) in self.layers.iter().zip(children.iter_mut()) {
            let Some(step) = current else {
                // An upstream layer is still priming; deeper layers see
                // nothing this push.
                break;
            };
            current = layer.forward_incremental(step, child)?;
        }
        Ok(current)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn visit_tensors(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Tensor)) {
        for (index, layer) in self.layers.iter().enumerate() {
            layer.visit_tensors(
                &crate::join_tensor_name(prefix, &index.to_string()),
                visitor,
            );
        }
    }

    fn visit_tensors_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Tensor)) {
        for (index, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_tensors_mut(
                &crate::join_tensor_name(prefix, &index.to_string()),
                visitor,
            );
        }
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let mut shape = input_shape.to_vec();
        let mut profile = ComputeProfile::default();
        for layer in &self.layers {
            profile = profile.combine(&layer.profile(&shape));
            shape = layer.output_shape(&shape);
        }
        profile
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv1d, Flatten, Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_chains_layers() {
        let mut r = rng();
        let mut model = Sequential::new(vec![
            Box::new(Conv1d::new(2, 4, 2, 2, 0, &mut r)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 4, 3, &mut r)),
        ]);
        let y = model.forward(&Tensor::ones(&[2, 2, 8])).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(model.output_shape(&[2, 2, 8]), vec![2, 3]);
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let mut r = rng();
        let mut model = Sequential::new(vec![
            Box::new(Conv1d::new(1, 2, 2, 2, 0, &mut r)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 2, 1, &mut r)),
        ]);
        let x = Tensor::ones(&[1, 1, 4]);
        let y = model.forward(&x).unwrap();
        let g = model.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn summary_reports_every_layer() {
        let mut r = rng();
        let model = Sequential::new(vec![
            Box::new(Conv1d::new(2, 4, 2, 2, 0, &mut r)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
        ]);
        let rows = model.summary(&[1, 2, 16]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], ("conv1d".to_string(), vec![1, 4, 8]));
        assert_eq!(rows[2], ("flatten".to_string(), vec![1, 32]));
    }

    #[test]
    fn profile_accumulates_over_layers() {
        let mut r = rng();
        let model = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut r)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut r)),
        ]);
        let p = model.profile(&[1, 4]);
        assert_eq!(p.flops, 2.0 * 4.0 * 8.0 + 8.0 + 2.0 * 8.0 * 2.0);
        let mut model = model;
        assert_eq!(model.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_infer_chains_like_forward() {
        let mut r = rng();
        let mut model = Sequential::new(vec![
            Box::new(Conv1d::new(2, 4, 3, 1, 1, &mut r)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 8, 3, &mut r)),
        ]);
        let x = Tensor::from_vec(
            (0..32).map(|i| (i as f32 * 0.19).sin()).collect(),
            &[2, 2, 8],
        )
        .unwrap();
        let trained = model.forward(&x).unwrap();
        let inferred = model.forward_infer(&x).unwrap();
        // All layers here share the generic compute path, so the immutable
        // pass is exactly equal, and it leaves no backward state behind.
        assert_eq!(trained, inferred);
        let mut fresh = Sequential::new(vec![Box::new(Relu::new())]);
        assert!(fresh.forward_infer(&x).is_ok());
        assert!(fresh.backward(&x).is_err());
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut model = Sequential::empty();
        assert!(model.is_empty());
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(model.forward(&x).unwrap(), x);
        assert_eq!(model.len(), 0);
    }

    #[test]
    fn visit_tensors_names_are_unique_and_cover_every_parameter() {
        let mut r = rng();
        let mut model = Sequential::new(vec![
            Box::new(Conv1d::new(2, 4, 2, 2, 0, &mut r)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 4, 3, &mut r)),
        ]);
        let mut names = Vec::new();
        let mut elements = 0;
        model.visit_tensors("net", &mut |name, t| {
            names.push(name.to_string());
            elements += t.len();
        });
        assert_eq!(
            names,
            vec!["net.0.weight", "net.0.bias", "net.3.weight", "net.3.bias"]
        );
        assert_eq!(elements, model.param_count());

        // The mutable visitor sees the same tensors under the same names in
        // the same order — the round-trip contract persistence relies on.
        let mut mut_names = Vec::new();
        model.visit_tensors_mut("net", &mut |name, t| {
            mut_names.push((name.to_string(), t.len()));
        });
        let lens: Vec<usize> = {
            let mut v = Vec::new();
            model.visit_tensors("net", &mut |_, t| v.push(t.len()));
            v
        };
        assert_eq!(
            mut_names,
            names.iter().cloned().zip(lens).collect::<Vec<_>>()
        );
    }

    #[test]
    fn push_extends_pipeline() {
        let mut r = rng();
        let mut model = Sequential::empty();
        model.push(Box::new(Linear::new(2, 2, &mut r)));
        model.push(Box::new(Relu::new()));
        assert_eq!(model.len(), 2);
        assert_eq!(model.output_shape(&[1, 2]), vec![1, 2]);
    }
}
