//! Neural-network layers with hand-written forward and backward passes.
//!
//! Input conventions:
//!
//! * Convolutional and recurrent layers operate on `[batch, channels, time]`
//!   tensors.
//! * Fully connected layers operate on `[batch, features]` tensors.
//! * [`Flatten`] and [`LastTimeStep`] convert between the two.

mod activation;
mod conv1d;
pub mod incremental;
mod linear;
mod lstm;
mod residual;
mod sequential;
mod shape_ops;

pub use activation::{Relu, Tanh};
pub use conv1d::Conv1d;
pub use incremental::{IncrementalCache, StepRef, StreamStep};
pub use linear::Linear;
pub use lstm::Lstm;
pub use residual::ResidualConvBlock;
pub use sequential::Sequential;
pub use shape_ops::{Flatten, LastTimeStep, Upsample1d};
