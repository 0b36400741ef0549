//! # varade-repro
//!
//! Facade crate for the VARADE reproduction workspace (Mascolini et al.,
//! *"VARADE: a Variational-based AutoRegressive model for Anomaly Detection
//! on the Edge"*, DAC 2024). It re-exports every workspace crate under one
//! roof so downstream experiments can depend on a single package, and it
//! hosts the cross-crate integration tests (`tests/`) and runnable examples
//! (`examples/`).
//!
//! Crate map (see the top-level `README.md` for the full architecture):
//!
//! * [`tensor`] (`varade-tensor`) — from-scratch tensors, layers, losses,
//!   Adam, and per-layer compute profiles;
//! * [`timeseries`] (`varade-timeseries`) — multivariate series containers,
//!   normalization, windowing, streaming buffers;
//! * [`metrics`] (`varade-metrics`) — AUC-ROC, PR curves, F1, event recall;
//! * [`detectors`] (`varade-detectors`) — the five baseline detectors of the
//!   paper's comparison (§3.3);
//! * [`varade`] — the VARADE model itself: backbone, ELBO loss, trainer,
//!   detector and streaming wrappers;
//! * [`fleet`] (`varade-fleet`) — the sharded multi-stream serving engine:
//!   many logical streams share fitted detectors across worker shards with
//!   bounded queues, explicit backpressure and incremental scoring;
//! * [`robot`] (`varade-robot`) — the synthetic 86-channel robot testbed;
//! * [`edge`] (`varade-edge`) — the analytical Jetson edge-platform model
//!   regenerating Table 2 and Figure 3;
//! * [`mod@bench`] (`varade-bench`) — experiment binaries and reference
//!   numbers.

pub use varade;
pub use varade_bench as bench;
pub use varade_detectors as detectors;
pub use varade_edge as edge;
pub use varade_fleet as fleet;
pub use varade_metrics as metrics;
pub use varade_robot as robot;
pub use varade_tensor as tensor;
pub use varade_timeseries as timeseries;
