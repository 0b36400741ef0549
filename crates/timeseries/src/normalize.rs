//! Per-channel min-max normalization to `[-1, 1]`.
//!
//! The paper normalizes every channel to `[-1, 1]` using the minimum and
//! maximum of the training data "ensuring that all the features have equal
//! importance" (§4.3). The same fitted normalizer is then applied to the test
//! stream.

use crate::{MultivariateSeries, SeriesError};

/// A fitted per-channel min-max scaler mapping training ranges to `[-1, 1]`.
///
/// Channels that were constant during fitting are mapped to `0.0`.
///
/// # Examples
///
/// ```
/// use varade_timeseries::{MultivariateSeries, MinMaxNormalizer};
///
/// # fn main() -> Result<(), varade_timeseries::SeriesError> {
/// let mut s = MultivariateSeries::new(vec!["x".into()], 1.0)?;
/// for v in [0.0f32, 5.0, 10.0] {
///     s.push_row(&[v])?;
/// }
/// let norm = MinMaxNormalizer::fit(&s)?;
/// let out = norm.transform(&s)?;
/// assert_eq!(out.value(0, 0), -1.0);
/// assert_eq!(out.value(1, 0), 0.0);
/// assert_eq!(out.value(2, 0), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxNormalizer {
    mins: Vec<f32>,
    maxs: Vec<f32>,
}

impl MinMaxNormalizer {
    /// Fits the scaler to a training series.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Empty`] for an empty series and
    /// [`SeriesError::NonFiniteValue`] if the series contains NaN or infinity.
    pub fn fit(series: &MultivariateSeries) -> Result<Self, SeriesError> {
        series.check_finite()?;
        let ranges = series.channel_ranges()?;
        Ok(Self {
            mins: ranges.iter().map(|r| r.0).collect(),
            maxs: ranges.iter().map(|r| r.1).collect(),
        })
    }

    /// Builds a normalizer from explicit per-channel `(min, max)` pairs.
    ///
    /// A constant range (`min == max`) is valid and maps its channel to
    /// `0.0`, like a channel that was constant during fitting.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::InvalidRange`], naming the first offending
    /// channel, if a bound is NaN or infinite or if `min > max` — an inverted
    /// range would silently map every sample of its channel to `0.0`.
    pub fn from_ranges(ranges: &[(f32, f32)]) -> Result<Self, SeriesError> {
        for (channel, &(min, max)) in ranges.iter().enumerate() {
            let reason = if !min.is_finite() || !max.is_finite() {
                format!("bounds must be finite, got min {min}, max {max}")
            } else if min > max {
                format!("min {min} exceeds max {max}")
            } else {
                continue;
            };
            return Err(SeriesError::InvalidRange { channel, reason });
        }
        Ok(Self {
            mins: ranges.iter().map(|r| r.0).collect(),
            maxs: ranges.iter().map(|r| r.1).collect(),
        })
    }

    /// Number of channels this normalizer was fitted on.
    pub fn n_channels(&self) -> usize {
        self.mins.len()
    }

    /// Fitted per-channel minima, in channel order.
    ///
    /// Together with [`MinMaxNormalizer::maxs`] this exposes the complete
    /// fitted state, so a normalizer can be exported to flat tensors and
    /// rebuilt exactly via [`MinMaxNormalizer::from_ranges`].
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Fitted per-channel maxima, in channel order.
    pub fn maxs(&self) -> &[f32] {
        &self.maxs
    }

    /// Whether channel `c`'s fitted range is degenerate: the span is zero or
    /// below half a unit-in-the-last-place *at the channel's own magnitude*.
    ///
    /// The check is deliberately relative, not the old absolute
    /// `span <= f32::EPSILON`: an absolute epsilon misclassifies any channel
    /// whose genuine range is small in absolute terms (a sensor reporting
    /// values around 1e-8 spans less than `f32::EPSILON` while carrying real
    /// structure) and, conversely, says nothing useful for offset-heavy
    /// channels (min 1e4 with a real 1e-3 range), where the quantity that
    /// matters is the span relative to the representable resolution at that
    /// offset. Half an ulp of `max(|lo|, |hi|)` keeps exactly the truly
    /// constant channels (span 0) plus ranges below float resolution.
    fn is_degenerate(&self, c: usize) -> bool {
        let (lo, hi) = (self.mins[c], self.maxs[c]);
        let span = hi - lo;
        span <= 0.5 * f32::EPSILON * lo.abs().max(hi.abs())
    }

    /// Normalizes a single value from channel `c`.
    pub fn transform_value(&self, c: usize, v: f32) -> f32 {
        let (lo, hi) = (self.mins[c], self.maxs[c]);
        if self.is_degenerate(c) {
            0.0
        } else {
            // Clamp so that test-time excursions beyond the training range stay bounded.
            (2.0 * (v - lo) / (hi - lo) - 1.0).clamp(-3.0, 3.0)
        }
    }

    /// Inverse-transforms a normalized value back to the original scale.
    pub fn inverse_value(&self, c: usize, v: f32) -> f32 {
        let (lo, hi) = (self.mins[c], self.maxs[c]);
        if self.is_degenerate(c) {
            lo
        } else {
            (v + 1.0) / 2.0 * (hi - lo) + lo
        }
    }

    /// Normalizes an entire series.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ChannelCountMismatch`] if the series has a
    /// different channel count than the fitted normalizer.
    pub fn transform(
        &self,
        series: &MultivariateSeries,
    ) -> Result<MultivariateSeries, SeriesError> {
        if series.n_channels() != self.n_channels() {
            return Err(SeriesError::ChannelCountMismatch {
                expected: self.n_channels(),
                got: series.n_channels(),
            });
        }
        let mut data = Vec::with_capacity(series.len() * series.n_channels());
        for t in 0..series.len() {
            for c in 0..series.n_channels() {
                data.push(self.transform_value(c, series.value(t, c)));
            }
        }
        MultivariateSeries::from_rows(
            series.channel_names().to_vec(),
            series.sample_rate_hz(),
            data,
        )
    }

    /// Normalizes one raw sample row in place (used by the streaming path).
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ChannelCountMismatch`] if the row width differs
    /// from the fitted channel count.
    pub fn transform_row(&self, row: &mut [f32]) -> Result<(), SeriesError> {
        if row.len() != self.n_channels() {
            return Err(SeriesError::ChannelCountMismatch {
                expected: self.n_channels(),
                got: row.len(),
            });
        }
        for (c, v) in row.iter_mut().enumerate() {
            *v = self.transform_value(c, *v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_series() -> MultivariateSeries {
        let mut s = MultivariateSeries::new(vec!["up".into(), "flat".into()], 1.0).unwrap();
        for t in 0..11 {
            s.push_row(&[t as f32, 3.0]).unwrap();
        }
        s
    }

    #[test]
    fn transform_maps_training_range_to_unit_interval() {
        let s = ramp_series();
        let n = MinMaxNormalizer::fit(&s).unwrap();
        let out = n.transform(&s).unwrap();
        assert_eq!(out.value(0, 0), -1.0);
        assert_eq!(out.value(10, 0), 1.0);
        assert!((out.value(5, 0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn constant_channel_maps_to_zero() {
        let s = ramp_series();
        let n = MinMaxNormalizer::fit(&s).unwrap();
        let out = n.transform(&s).unwrap();
        for t in 0..s.len() {
            assert_eq!(out.value(t, 1), 0.0);
        }
    }

    #[test]
    fn inverse_round_trips_within_training_range() {
        let s = ramp_series();
        let n = MinMaxNormalizer::fit(&s).unwrap();
        for v in [0.0f32, 2.5, 7.0, 10.0] {
            let norm = n.transform_value(0, v);
            let back = n.inverse_value(0, norm);
            assert!((back - v).abs() < 1e-5, "{v} -> {norm} -> {back}");
        }
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let s = ramp_series();
        let n = MinMaxNormalizer::fit(&s).unwrap();
        assert!(n.transform_value(0, 1e9) <= 3.0);
        assert!(n.transform_value(0, -1e9) >= -3.0);
    }

    #[test]
    fn fit_rejects_empty_or_nan_series() {
        let empty = MultivariateSeries::new(vec!["a".into()], 1.0).unwrap();
        assert!(MinMaxNormalizer::fit(&empty).is_err());
        let mut bad = MultivariateSeries::new(vec!["a".into()], 1.0).unwrap();
        bad.push_row(&[f32::INFINITY]).unwrap();
        assert!(MinMaxNormalizer::fit(&bad).is_err());
    }

    #[test]
    fn transform_checks_channel_count() {
        let s = ramp_series();
        let n = MinMaxNormalizer::fit(&s).unwrap();
        let other = MultivariateSeries::new(vec!["only".into()], 1.0).unwrap();
        assert!(n.transform(&other).is_err());
        let mut row = vec![1.0];
        assert!(n.transform_row(&mut row).is_err());
    }

    #[test]
    fn offset_heavy_channel_with_a_small_range_is_not_flattened() {
        // min 1e4, max 1e4 + 1e-3: the span is tiny in absolute terms (the
        // old absolute-epsilon check was one wrong constant away from calling
        // it constant) but perfectly real relative to the channel's
        // resolution — it must normalize to [-1, 1], not flatten to 0.
        let n = MinMaxNormalizer::from_ranges(&[(1.0e4, 1.0e4 + 1.0e-3)]).unwrap();
        let lo = n.transform_value(0, 1.0e4);
        let hi = n.transform_value(0, 1.0e4 + 1.0e-3);
        assert_eq!(lo, -1.0, "training min must map to -1");
        assert!(
            (hi - 1.0).abs() < 1e-5,
            "training max must map to ~1, got {hi}"
        );
        assert_ne!(lo, hi, "offset-heavy channel was flattened to a constant");
        // And the inverse maps back near the original offset-heavy values.
        assert!((n.inverse_value(0, -1.0) - 1.0e4).abs() < 1.0e-2);
    }

    #[test]
    fn tiny_magnitude_channel_below_absolute_epsilon_still_normalizes() {
        // A genuine range of 4e-8 sits far below the old absolute epsilon
        // (f32::EPSILON ≈ 1.19e-7), which flattened the whole channel to 0.
        let n = MinMaxNormalizer::from_ranges(&[(1.0e-8, 5.0e-8)]).unwrap();
        assert_eq!(n.transform_value(0, 1.0e-8), -1.0);
        assert!((n.transform_value(0, 5.0e-8) - 1.0).abs() < 1e-5);
        assert!((n.transform_value(0, 3.0e-8)).abs() < 1e-5);
        assert!((n.inverse_value(0, 0.0) - 3.0e-8).abs() < 1e-12);
    }

    #[test]
    fn truly_constant_channels_stay_flattened_at_any_offset() {
        for &value in &[0.0f32, 3.0, -2.5e6, 1.0e-9] {
            let n = MinMaxNormalizer::from_ranges(&[(value, value)]).unwrap();
            assert_eq!(n.transform_value(0, value), 0.0);
            assert_eq!(n.transform_value(0, value + 1.0), 0.0);
            assert_eq!(n.inverse_value(0, 0.7), value);
        }
    }

    #[test]
    fn from_ranges_refuses_inverted_and_non_finite_ranges_naming_the_channel() {
        let refused = |ranges: &[(f32, f32)]| match MinMaxNormalizer::from_ranges(ranges) {
            Err(SeriesError::InvalidRange { channel, reason }) => (channel, reason),
            other => panic!("{ranges:?}: expected InvalidRange, got {other:?}"),
        };
        let (channel, reason) = refused(&[(0.0, 2.0), (1.0, -1.0)]);
        assert_eq!(channel, 1);
        assert!(reason.contains("exceeds"), "{reason}");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(refused(&[(0.0, 1.0), (0.0, 1.0), (bad, 1.0)]).0, 2);
            assert_eq!(refused(&[(0.0, bad)]).0, 0);
        }
        let err = MinMaxNormalizer::from_ranges(&[(3.0, 2.0)]).unwrap_err();
        assert!(err.to_string().contains("normalizer channel 0"), "{err}");
        // A constant range is valid and degenerate, not refused.
        assert!(MinMaxNormalizer::from_ranges(&[(0.0, 2.0), (3.0, 3.0)]).is_ok());
    }

    #[test]
    fn transform_row_matches_series_transform() {
        let s = ramp_series();
        let n = MinMaxNormalizer::fit(&s).unwrap();
        let mut row = vec![7.0, 3.0];
        n.transform_row(&mut row).unwrap();
        let expected = n.transform(&s).unwrap();
        assert!((row[0] - expected.value(7, 0)).abs() < 1e-6);
        assert_eq!(row[1], 0.0);
    }
}
