//! Channel-labelled multivariate time-series container.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors produced by series construction and preprocessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesError {
    /// A row had a different number of values than the series has channels.
    ChannelCountMismatch {
        /// Number of channels the series declares.
        expected: usize,
        /// Number of values provided.
        got: usize,
    },
    /// The series has no channels or duplicate/empty channel names.
    InvalidSchema(String),
    /// An operation required data but the series (or a split of it) is empty.
    Empty,
    /// A non-finite value (NaN or infinity) was encountered where finite data is required.
    NonFiniteValue {
        /// Time index of the offending value.
        step: usize,
        /// Channel index of the offending value.
        channel: usize,
    },
    /// A window or split request does not fit the series length.
    InvalidWindow(String),
    /// A normalizer range is inverted (`min > max`) or has a non-finite
    /// bound.
    InvalidRange {
        /// Channel index of the offending range.
        channel: usize,
        /// What is wrong with the range.
        reason: String,
    },
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::ChannelCountMismatch { expected, got } => {
                write!(f, "channel count mismatch: expected {expected}, got {got}")
            }
            SeriesError::InvalidSchema(reason) => write!(f, "invalid channel schema: {reason}"),
            SeriesError::Empty => write!(f, "series contains no samples"),
            SeriesError::NonFiniteValue { step, channel } => {
                write!(f, "non-finite value at step {step}, channel {channel}")
            }
            SeriesError::InvalidWindow(reason) => write!(f, "invalid window request: {reason}"),
            SeriesError::InvalidRange { channel, reason } => {
                write!(f, "normalizer channel {channel}: {reason}")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// A multivariate time series stored time-major with named channels.
///
/// # Examples
///
/// ```
/// use varade_timeseries::MultivariateSeries;
///
/// # fn main() -> Result<(), varade_timeseries::SeriesError> {
/// let mut s = MultivariateSeries::new(vec!["power".into(), "current".into()], 200.0)?;
/// s.push_row(&[230.0, 1.5])?;
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.value(0, 1), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultivariateSeries {
    channel_names: Vec<String>,
    sample_rate_hz: f64,
    /// Row-major data: `data[t * n_channels + c]`.
    data: Vec<f32>,
}

impl MultivariateSeries {
    /// Creates an empty series with the given channel names and sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::InvalidSchema`] if there are no channels, a
    /// channel name is empty, or names are duplicated.
    pub fn new(channel_names: Vec<String>, sample_rate_hz: f64) -> Result<Self, SeriesError> {
        if channel_names.is_empty() {
            return Err(SeriesError::InvalidSchema("no channels".into()));
        }
        if channel_names.iter().any(|n| n.is_empty()) {
            return Err(SeriesError::InvalidSchema("empty channel name".into()));
        }
        let mut sorted = channel_names.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != channel_names.len() {
            return Err(SeriesError::InvalidSchema("duplicate channel names".into()));
        }
        Ok(Self {
            channel_names,
            sample_rate_hz,
            data: Vec::new(),
        })
    }

    /// Builds a series from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ChannelCountMismatch`] if the data length is not
    /// a multiple of the channel count, plus the schema errors of
    /// [`MultivariateSeries::new`].
    pub fn from_rows(
        channel_names: Vec<String>,
        sample_rate_hz: f64,
        data: Vec<f32>,
    ) -> Result<Self, SeriesError> {
        let mut series = Self::new(channel_names, sample_rate_hz)?;
        if !data.len().is_multiple_of(series.n_channels()) {
            return Err(SeriesError::ChannelCountMismatch {
                expected: series.n_channels(),
                got: data.len() % series.n_channels(),
            });
        }
        series.data = data;
        Ok(series)
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        if self.channel_names.is_empty() {
            0
        } else {
            self.data.len() / self.channel_names.len()
        }
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channel_names.len()
    }

    /// Channel names in column order.
    pub fn channel_names(&self) -> &[String] {
        &self.channel_names
    }

    /// Sampling rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Duration covered by the samples, in seconds.
    pub fn duration_secs(&self) -> f64 {
        if self.sample_rate_hz > 0.0 {
            self.len() as f64 / self.sample_rate_hz
        } else {
            0.0
        }
    }

    /// Index of a channel by name, if present.
    pub fn channel_index(&self, name: &str) -> Option<usize> {
        self.channel_names.iter().position(|n| n == name)
    }

    /// Appends one sample row (one value per channel).
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ChannelCountMismatch`] if the row width differs
    /// from the channel count.
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), SeriesError> {
        if row.len() != self.n_channels() {
            return Err(SeriesError::ChannelCountMismatch {
                expected: self.n_channels(),
                got: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// The sample row at time index `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn row(&self, t: usize) -> &[f32] {
        let c = self.n_channels();
        &self.data[t * c..(t + 1) * c]
    }

    /// A single value at time `t`, channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, t: usize, c: usize) -> f32 {
        assert!(c < self.n_channels(), "channel index out of range");
        self.data[t * self.n_channels() + c]
    }

    /// Copies one channel into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn channel(&self, c: usize) -> Vec<f32> {
        assert!(c < self.n_channels(), "channel index out of range");
        (0..self.len()).map(|t| self.value(t, c)).collect()
    }

    /// Row-major view of all data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns a new series containing time steps `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::InvalidWindow`] if the range is out of bounds or
    /// reversed.
    pub fn slice(&self, start: usize, end: usize) -> Result<Self, SeriesError> {
        if start > end || end > self.len() {
            return Err(SeriesError::InvalidWindow(format!(
                "range {start}..{end} outside series of length {}",
                self.len()
            )));
        }
        let c = self.n_channels();
        Ok(Self {
            channel_names: self.channel_names.clone(),
            sample_rate_hz: self.sample_rate_hz,
            data: self.data[start * c..end * c].to_vec(),
        })
    }

    /// Splits the series into `(first, second)` at `at` time steps.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::InvalidWindow`] if `at` exceeds the length.
    pub fn split_at(&self, at: usize) -> Result<(Self, Self), SeriesError> {
        Ok((self.slice(0, at)?, self.slice(at, self.len())?))
    }

    /// Verifies every value is finite.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::NonFiniteValue`] pointing at the first offending
    /// value.
    pub fn check_finite(&self) -> Result<(), SeriesError> {
        let c = self.n_channels();
        for (idx, v) in self.data.iter().enumerate() {
            if !v.is_finite() {
                return Err(SeriesError::NonFiniteValue {
                    step: idx / c,
                    channel: idx % c,
                });
            }
        }
        Ok(())
    }

    /// Per-channel minimum and maximum over all time steps.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Empty`] if the series has no samples.
    pub fn channel_ranges(&self) -> Result<Vec<(f32, f32)>, SeriesError> {
        if self.is_empty() {
            return Err(SeriesError::Empty);
        }
        let c = self.n_channels();
        let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); c];
        for t in 0..self.len() {
            for (ci, range) in ranges.iter_mut().enumerate() {
                let v = self.value(t, ci);
                range.0 = range.0.min(v);
                range.1 = range.1.max(v);
            }
        }
        Ok(ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_ab() -> MultivariateSeries {
        let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 5.0).unwrap();
        for t in 0..10 {
            s.push_row(&[t as f32, 10.0 - t as f32]).unwrap();
        }
        s
    }

    #[test]
    fn schema_validation_rejects_bad_names() {
        assert!(MultivariateSeries::new(vec![], 1.0).is_err());
        assert!(MultivariateSeries::new(vec!["".into()], 1.0).is_err());
        assert!(MultivariateSeries::new(vec!["x".into(), "x".into()], 1.0).is_err());
        assert!(MultivariateSeries::new(vec!["x".into(), "y".into()], 1.0).is_ok());
    }

    #[test]
    fn push_and_access_rows() {
        let s = series_ab();
        assert_eq!(s.len(), 10);
        assert_eq!(s.n_channels(), 2);
        assert_eq!(s.row(3), &[3.0, 7.0]);
        assert_eq!(s.value(9, 1), 1.0);
        assert_eq!(s.channel(0), (0..10).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(s.channel_index("b"), Some(1));
        assert_eq!(s.channel_index("zzz"), None);
    }

    #[test]
    fn push_rejects_wrong_width() {
        let mut s = series_ab();
        assert!(matches!(
            s.push_row(&[1.0]),
            Err(SeriesError::ChannelCountMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn duration_follows_sample_rate() {
        let s = series_ab();
        assert!((s.duration_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slice_and_split() {
        let s = series_ab();
        let mid = s.slice(2, 5).unwrap();
        assert_eq!(mid.len(), 3);
        assert_eq!(mid.row(0), &[2.0, 8.0]);
        let (a, b) = s.split_at(7).unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
        assert!(s.slice(5, 3).is_err());
        assert!(s.slice(0, 11).is_err());
    }

    #[test]
    fn from_rows_validates_length() {
        let ok = MultivariateSeries::from_rows(
            vec!["a".into(), "b".into()],
            1.0,
            vec![1.0, 2.0, 3.0, 4.0],
        );
        assert_eq!(ok.unwrap().len(), 2);
        let bad =
            MultivariateSeries::from_rows(vec!["a".into(), "b".into()], 1.0, vec![1.0, 2.0, 3.0]);
        assert!(bad.is_err());
    }

    #[test]
    fn finite_check_reports_position() {
        let mut s = series_ab();
        s.push_row(&[f32::NAN, 0.0]).unwrap();
        match s.check_finite() {
            Err(SeriesError::NonFiniteValue { step, channel }) => {
                assert_eq!(step, 10);
                assert_eq!(channel, 0);
            }
            other => panic!("expected NonFiniteValue, got {other:?}"),
        }
    }

    #[test]
    fn channel_ranges_cover_extremes() {
        let s = series_ab();
        let ranges = s.channel_ranges().unwrap();
        assert_eq!(ranges[0], (0.0, 9.0));
        assert_eq!(ranges[1], (1.0, 10.0));
        let empty = MultivariateSeries::new(vec!["a".into()], 1.0).unwrap();
        assert!(matches!(empty.channel_ranges(), Err(SeriesError::Empty)));
    }
}
