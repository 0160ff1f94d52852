//! Wall-clock phase telemetry embedded in every driver's results file.
//!
//! Each experiment driver splits its work into named phases
//! (characterise / ground truth / predictions / …). A [`PhaseClock`]
//! stamps the wall-clock spent in each and folds them into a
//! [`Telemetry`] record that the binaries serialise next to their rows,
//! so a later run of the same driver has a wall-clock trajectory to
//! compare against.

use std::time::Instant;

use serde::Serialize;

/// One named phase and the wall-clock seconds it took.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Phase {
    /// Phase name (e.g. `"characterize"`, `"study"`).
    pub name: String,
    /// Wall-clock duration of the phase in seconds.
    pub seconds: f64,
}

/// Wall-clock telemetry for one driver run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Telemetry {
    /// Worker threads the run's sweeps fanned out to.
    pub threads: usize,
    /// Per-phase wall-clock, in execution order.
    pub phases: Vec<Phase>,
    /// End-to-end wall-clock in seconds (≥ the sum of the phases).
    pub total_seconds: f64,
}

impl Telemetry {
    /// The recorded duration of `phase`, if present.
    #[must_use]
    pub fn phase_seconds(&self, phase: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == phase)
            .map(|p| p.seconds)
    }
}

/// Accumulates [`Telemetry`] as a driver runs.
///
/// Create one at driver entry, call [`PhaseClock::mark`] at each phase
/// boundary (the elapsed time since the previous mark is attributed to
/// the named phase), and [`PhaseClock::finish`] at exit.
#[derive(Debug)]
pub struct PhaseClock {
    threads: usize,
    started: Instant,
    last_mark: Instant,
    phases: Vec<Phase>,
}

impl PhaseClock {
    /// Starts the clock for a run using `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let now = Instant::now();
        Self {
            threads,
            started: now,
            last_mark: now,
            phases: Vec::new(),
        }
    }

    /// Closes the current phase under `name`; time resumes accumulating
    /// toward the next mark.
    pub fn mark(&mut self, name: impl Into<String>) {
        let now = Instant::now();
        self.phases.push(Phase {
            name: name.into(),
            seconds: now.duration_since(self.last_mark).as_secs_f64(),
        });
        self.last_mark = now;
    }

    /// Finalises the telemetry record.
    #[must_use]
    pub fn finish(self) -> Telemetry {
        Telemetry {
            threads: self.threads,
            phases: self.phases,
            total_seconds: self.started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_order() {
        let mut clock = PhaseClock::new(3);
        clock.mark("a");
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.mark("b");
        let t = clock.finish();
        assert_eq!(t.threads, 3);
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].name, "a");
        assert_eq!(t.phases[1].name, "b");
        assert!(t.phase_seconds("b").unwrap() >= 0.004);
        assert!(t.total_seconds >= t.phase_seconds("b").unwrap());
        assert!(t.phase_seconds("missing").is_none());
    }
}
