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
/// Decimation can skip the minimum voltage, which is what the paper is
/// about: the run that fills the trace tracks the minimum over *every*
/// step into `RunOutcome::{v_min, t_min}`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageTrace {
    samples: Vec<VoltageSample>,
    stride: usize,
    counter: usize,
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
        }
    }

    /// Feeds one simulation step into the trace.
    pub fn push(&mut self, sample: VoltageSample) {
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
    fn decimates_to_every_strideth_step() {
        let mut tr = VoltageTrace::new(10);
        assert!(tr.last().is_none());
        for k in 0..100 {
            let v = if k == 55 { 1.5 } else { 2.0 };
            tr.push(sample(k as f64, v));
        }
        assert_eq!(tr.len(), 10);
        let kept: Vec<f64> = tr.samples().iter().map(|s| s.t.get()).collect();
        assert_eq!(
            kept,
            (0..10).map(|k| f64::from(k) * 10.0).collect::<Vec<_>>()
        );
        // The dip itself was decimated away.
        assert!(tr.samples().iter().all(|s| s.v_node > Volts::new(1.9)));
    }

    #[test]
    fn last_returns_latest_recorded() {
        let mut tr = VoltageTrace::new(1);
        tr.push(sample(0.0, 2.0));
        tr.push(sample(1.0, 1.9));
        assert_eq!(tr.last().unwrap().v_node, Volts::new(1.9));
    }
}
