//! Fixed-size streaming window buffer for real-time inference.

use crate::SeriesError;

/// A ring buffer holding the most recent `window` samples of a multivariate
/// stream, mirroring the script in the paper's test setup that "continuously
/// reads data from the sensors, prepares the data ... and calls the inference
/// function" (§4.3).
///
/// The ring is channel-major — each channel's history is one contiguous
/// `window`-long row — so admitting a sample is one write per channel
/// ([`StreamingWindow::push_row`]) and the `[channels, window]` context a
/// full-window model consumes is two slice copies per channel
/// ([`StreamingWindow::to_window`]). The context is built only when asked
/// for: an incremental scorer that needs just the newest sample never pays
/// for it. [`StreamingWindow::push`] does both, for callers that want every
/// window.
///
/// # Examples
///
/// ```
/// use varade_timeseries::StreamingWindow;
///
/// # fn main() -> Result<(), varade_timeseries::SeriesError> {
/// let mut buf = StreamingWindow::new(2, 3)?;
/// assert!(buf.push(&[1.0, 10.0])?.is_none());
/// assert!(buf.push(&[2.0, 20.0])?.is_none());
/// let window = buf.push(&[3.0, 30.0])?.expect("buffer full");
/// assert_eq!(window, vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingWindow {
    n_channels: usize,
    window: usize,
    /// Channel-major ring: channel `c`'s history lives in
    /// `data[c * window..(c + 1) * window]`, and every channel writes its
    /// next sample at the same slot, `head`. Once the window is full, `head`
    /// is also the oldest sample's slot.
    data: Vec<f32>,
    head: usize,
    /// Samples currently buffered (at most `window`).
    len: usize,
    samples_seen: u64,
}

impl StreamingWindow {
    /// Creates a buffer for `n_channels` channels and `window` time steps.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::InvalidWindow`] if either argument is zero.
    pub fn new(n_channels: usize, window: usize) -> Result<Self, SeriesError> {
        if n_channels == 0 || window == 0 {
            return Err(SeriesError::InvalidWindow(
                "channel count and window must be positive".into(),
            ));
        }
        Ok(Self {
            n_channels,
            window,
            data: vec![0.0; n_channels * window],
            head: 0,
            len: 0,
            samples_seen: 0,
        })
    }

    /// Number of channels per sample.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Window length in samples.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total samples pushed since creation.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Whether the buffer currently holds a full window.
    pub fn is_full(&self) -> bool {
        self.len == self.window
    }

    /// Number of samples currently buffered (at most the window length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples are buffered (freshly created or just reset).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes one sample. Once the buffer is full, returns the current window
    /// in channel-major order (`[channels, window]` flattened), ready to be
    /// reshaped into a `[1, channels, window]` tensor.
    ///
    /// The returned window is a fresh copy of the whole buffer; a caller
    /// that needs only the newest sample should use
    /// [`StreamingWindow::push_row`], which writes one value per channel and
    /// copies nothing out.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ChannelCountMismatch`] if the sample width is
    /// wrong.
    pub fn push(&mut self, sample: &[f32]) -> Result<Option<Vec<f32>>, SeriesError> {
        self.push_row(sample)?;
        Ok(self.to_window())
    }

    /// Pushes one sample without copying the window out: one write per
    /// channel into the ring. Returns whether the buffer now holds a full
    /// window.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ChannelCountMismatch`] if the sample width is
    /// wrong.
    pub fn push_row(&mut self, sample: &[f32]) -> Result<bool, SeriesError> {
        if sample.len() != self.n_channels {
            return Err(SeriesError::ChannelCountMismatch {
                expected: self.n_channels,
                got: sample.len(),
            });
        }
        for (slot, &v) in self.data[self.head..]
            .iter_mut()
            .step_by(self.window)
            .zip(sample)
        {
            *slot = v;
        }
        self.head = (self.head + 1) % self.window;
        self.len = (self.len + 1).min(self.window);
        self.samples_seen += 1;
        Ok(self.is_full())
    }

    /// The current window in channel-major order (`[channels, window]`
    /// flattened, oldest sample first), or `None` before the buffer is
    /// full. Builds a fresh copy on every call.
    pub fn to_window(&self) -> Option<Vec<f32>> {
        if !self.is_full() {
            return None;
        }
        let mut out = Vec::with_capacity(self.data.len());
        for history in self.data.chunks_exact(self.window) {
            out.extend_from_slice(&history[self.head..]);
            out.extend_from_slice(&history[..self.head]);
        }
        Some(out)
    }

    /// Whether the newest buffered sample is bit-identical to `row` —
    /// `false` when the buffer is empty or `row` has the wrong width. Reads
    /// one value per channel.
    pub fn newest_equals(&self, row: &[f32]) -> bool {
        if self.is_empty() || row.len() != self.n_channels {
            return false;
        }
        let newest = (self.head + self.window - 1) % self.window;
        self.data[newest..]
            .iter()
            .step_by(self.window)
            .zip(row)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Clears the buffered history (the sample counter is preserved).
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Clears the buffered history *and* the sample counter, returning the
    /// buffer to its freshly constructed state. Serving engines use this to
    /// recycle a stream slot for a new logical stream without reallocating
    /// (the buffer is `Clone`, so a warm slot can also be forked first).
    pub fn reset_full(&mut self) {
        self.reset();
        self.samples_seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_nothing_until_full() {
        let mut buf = StreamingWindow::new(1, 4).unwrap();
        for t in 0..3 {
            assert!(buf.push(&[t as f32]).unwrap().is_none());
        }
        assert!(!buf.is_full());
        let w = buf.push(&[3.0]).unwrap().unwrap();
        assert!(buf.is_full());
        assert_eq!(w, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn slides_by_one_after_full() {
        let mut buf = StreamingWindow::new(1, 3).unwrap();
        for t in 0..3 {
            buf.push(&[t as f32]).unwrap();
        }
        let w = buf.push(&[3.0]).unwrap().unwrap();
        assert_eq!(w, vec![1.0, 2.0, 3.0]);
        assert_eq!(buf.samples_seen(), 4);
    }

    #[test]
    fn channel_major_layout() {
        let mut buf = StreamingWindow::new(2, 2).unwrap();
        buf.push(&[1.0, 10.0]).unwrap();
        let w = buf.push(&[2.0, 20.0]).unwrap().unwrap();
        assert_eq!(w, vec![1.0, 2.0, 10.0, 20.0]);
    }

    #[test]
    fn validates_construction_and_samples() {
        assert!(StreamingWindow::new(0, 3).is_err());
        assert!(StreamingWindow::new(2, 0).is_err());
        let mut buf = StreamingWindow::new(2, 2).unwrap();
        assert!(buf.push(&[1.0]).is_err());
    }

    #[test]
    fn reset_clears_history_but_keeps_counter() {
        let mut buf = StreamingWindow::new(1, 2).unwrap();
        buf.push(&[1.0]).unwrap();
        buf.push(&[2.0]).unwrap();
        buf.reset();
        assert!(!buf.is_full());
        assert_eq!(buf.samples_seen(), 2);
        assert!(buf.push(&[3.0]).unwrap().is_none());
    }

    #[test]
    fn full_reset_recycles_the_slot_and_clone_forks_state() {
        let mut buf = StreamingWindow::new(1, 2).unwrap();
        assert!(buf.is_empty());
        buf.push(&[1.0]).unwrap();
        assert_eq!(buf.len(), 1);
        buf.push(&[2.0]).unwrap();
        assert_eq!(buf.len(), 2);
        // A clone is an independent fork of the warm state.
        let mut fork = buf.clone();
        assert_eq!(fork.push(&[3.0]).unwrap().unwrap(), vec![2.0, 3.0]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.samples_seen(), 2);
        // reset_full returns to the freshly constructed state.
        buf.reset_full();
        assert!(buf.is_empty());
        assert_eq!(buf.samples_seen(), 0);
        assert!(buf.push(&[9.0]).unwrap().is_none());
        assert_eq!(buf.samples_seen(), 1);
    }

    #[test]
    fn push_row_copies_nothing_out_and_to_window_rebuilds_on_demand() {
        let mut buf = StreamingWindow::new(2, 3).unwrap();
        assert!(!buf.push_row(&[1.0, 10.0]).unwrap());
        assert!(buf.to_window().is_none());
        assert!(buf.newest_equals(&[1.0, 10.0]));
        buf.push_row(&[2.0, 20.0]).unwrap();
        assert!(buf.push_row(&[3.0, 30.0]).unwrap());
        assert_eq!(
            buf.to_window().unwrap(),
            vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]
        );
        // Wrapping the ring keeps oldest-first order per channel.
        for t in 4..9 {
            buf.push_row(&[t as f32, 10.0 * t as f32]).unwrap();
            let w = buf.to_window().unwrap();
            let t = t as f32;
            assert_eq!(
                w,
                vec![
                    t - 2.0,
                    t - 1.0,
                    t,
                    10.0 * (t - 2.0),
                    10.0 * (t - 1.0),
                    10.0 * t
                ]
            );
            assert!(buf.newest_equals(&[t, 10.0 * t]));
            assert!(!buf.newest_equals(&[t - 1.0, 10.0 * (t - 1.0)]));
        }
        assert!(!buf.newest_equals(&[8.0]));
        assert!(buf.push_row(&[1.0]).is_err());
        buf.reset();
        assert!(!buf.newest_equals(&[8.0, 80.0]));
    }

    #[test]
    fn newest_equals_compares_bits() {
        let mut buf = StreamingWindow::new(1, 2).unwrap();
        buf.push_row(&[0.0]).unwrap();
        assert!(!buf.newest_equals(&[-0.0]));
        buf.push_row(&[f32::NAN]).unwrap();
        assert!(buf.newest_equals(&[f32::NAN]));
    }
}
