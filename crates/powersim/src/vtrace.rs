//! Recorded voltage/current traces from simulation runs.

use culpeo_units::{Amps, Seconds, Volts};

/// One recorded instant of a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSample {
    /// Simulation time.
    pub t: Seconds,
    /// Observable buffer-node voltage.
    pub v_node: Volts,
    /// Current drawn by the output booster from the node.
    pub i_in: Amps,
}

/// A time series of buffer-node observations, decimated to a configurable
/// stride to keep long application runs affordable.
///
/// The minimum voltage is tracked over *every* step regardless of stride —
/// the whole point of the paper is that the minimum matters, so it must
/// never be aliased away by decimation.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageTrace {
    samples: Vec<VoltageSample>,
    stride: usize,
    counter: usize,
    v_min: Volts,
    t_min: Seconds,
    seen_any: bool,
}

impl VoltageTrace {
    /// Creates a trace recording every `stride`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "stride must be at least 1");
        Self {
            samples: Vec::new(),
            stride,
            counter: 0,
            // Sentinel above any reachable voltage; `seen_any` gates its
            // exposure. Finite so the strict-finite guard stays quiet.
            v_min: Volts::new(f64::MAX),
            t_min: Seconds::ZERO,
            seen_any: false,
        }
    }

    /// Feeds one simulation step into the trace.
    pub fn push(&mut self, sample: VoltageSample) {
        self.seen_any = true;
        if sample.v_node < self.v_min {
            self.v_min = sample.v_node;
            self.t_min = sample.t;
        }
        if self.counter == 0 {
            self.samples.push(sample);
        }
        self.counter = (self.counter + 1) % self.stride;
    }

    /// The recorded (decimated) samples.
    #[must_use]
    pub fn samples(&self) -> &[VoltageSample] {
        &self.samples
    }

    /// The minimum node voltage observed over all pushed steps, with its
    /// timestamp. `None` before any sample arrives.
    #[must_use]
    pub fn minimum(&self) -> Option<(Seconds, Volts)> {
        self.seen_any.then_some((self.t_min, self.v_min))
    }

    /// The final recorded node voltage, if any sample was recorded.
    #[must_use]
    pub fn last(&self) -> Option<VoltageSample> {
        self.samples.last().copied()
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl Default for VoltageTrace {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, v: f64) -> VoltageSample {
        VoltageSample {
            t: Seconds::new(t),
            v_node: Volts::new(v),
            i_in: Amps::ZERO,
        }
    }

    #[test]
    fn records_all_with_stride_one() {
        let mut tr = VoltageTrace::new(1);
        for k in 0..5 {
            tr.push(sample(k as f64, 2.0));
        }
        assert_eq!(tr.len(), 5);
        assert!(!tr.is_empty());
    }

    #[test]
    fn decimates_but_keeps_minimum() {
        let mut tr = VoltageTrace::new(10);
        for k in 0..100 {
            let v = if k == 55 { 1.5 } else { 2.0 };
            tr.push(sample(k as f64, v));
        }
        assert_eq!(tr.len(), 10);
        let (t_min, v_min) = tr.minimum().unwrap();
        assert_eq!(v_min, Volts::new(1.5));
        assert_eq!(t_min, Seconds::new(55.0));
        // The dip itself was decimated away…
        assert!(tr.samples().iter().all(|s| s.v_node > Volts::new(1.9)));
    }

    #[test]
    fn minimum_none_before_any_push() {
        let tr = VoltageTrace::new(1);
        assert!(tr.minimum().is_none());
        assert!(tr.last().is_none());
    }

    #[test]
    fn last_returns_latest_recorded() {
        let mut tr = VoltageTrace::new(1);
        tr.push(sample(0.0, 2.0));
        tr.push(sample(1.0, 1.9));
        assert_eq!(tr.last().unwrap().v_node, Volts::new(1.9));
    }
}
