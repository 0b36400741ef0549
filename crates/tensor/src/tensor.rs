//! A minimal dense tensor of `f32` values with a dynamic shape.
//!
//! The tensor is always contiguous in row-major order. It is intentionally
//! small: just enough functionality (element access, element-wise arithmetic,
//! matrix multiplication, reshaping) to express the layers used by VARADE and
//! its baselines without pulling in a BLAS dependency.

use std::fmt;

use crate::kernels;
use crate::TensorError;

/// A dense, row-major, dynamically shaped tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use varade_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// ```
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, ..; {}])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use varade_tensor::Tensor;
    /// let t = Tensor::zeros(&[3, 4]);
    /// assert_eq!(t.len(), 12);
    /// assert!(t.iter().all(|v| *v == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            data: vec![0.0; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with the given constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Builds a tensor from an existing vector and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the number of elements does
    /// not match the product of the shape dimensions.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: vec![data.len()],
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Builds a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            data: data.to_vec(),
            shape: vec![data.len()],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&idx, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            debug_assert!(
                idx < dim,
                "index {idx} out of bounds for dim {i} (size {dim})"
            );
            off = off * dim + idx;
        }
        off
    }

    /// Returns the element at the given multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index rank or any coordinate is out of
    /// bounds; in release builds out-of-bounds access panics via slice
    /// indexing.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Returns a mutable reference to the element at the given index.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Tensor::at`].
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Returns a new tensor with the same data and a different shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: self.shape.clone(),
            });
        }
        Ok(Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Element-wise map, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise binary operation with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        kernels::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        kernels::sum(&self.data)
    }

    /// Arithmetic mean of all elements; zero for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; negative infinity for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; positive infinity for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared Euclidean norm of the flattened tensor.
    pub fn norm_sq(&self) -> f32 {
        kernels::norm_sq(&self.data)
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Sets every element to zero, keeping the shape.
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if either operand is not rank 2
    /// or the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = vec![0.0f32; m * n];
        kernels::matmul(&self.data, &other.data, &mut out, m, k, n);
        Ok(Self {
            data: out,
            shape: vec![m, n],
        })
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::ShapeMismatch {
                expected: vec![2],
                got: vec![self.ndim()],
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Self {
            data,
            shape: vec![n, m],
        })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_values() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    fn at_mut_writes_back() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.at_mut(&[1, 1]) = 7.5;
        assert_eq!(t.at(&[1, 1]), 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        let c = Tensor::zeros(&[2]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(t.sum(), 6.0);
        assert_eq!(t.mean(), 1.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_tensor_mean_is_zero() {
        let t = Tensor::zeros(&[0]);
        assert_eq!(t.mean(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[0, 1]), 4.0);
        let back = t.transpose().unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        *t.at_mut(&[1]) = f32::NAN;
        assert!(t.has_non_finite());
    }
}
