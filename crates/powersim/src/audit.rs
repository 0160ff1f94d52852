//! Runtime physics audits for the simulated plant.
//!
//! The simulator is the ground truth every `V_safe` comparison rests on,
//! so its own invariants deserve machine checking, not just unit tests.
//! [`Auditor`] wraps a [`PowerSystem`] run and verifies, continuously:
//!
//! * **energy conservation** — the buffer's `½CV²` delta matches the
//!   ledger (harvested − delivered − losses) within tolerance;
//! * **monitor hysteresis** — after a cut, delivery stays off until the
//!   node reaches `V_high`;
//! * **physical ranges** — node voltage and currents stay finite and
//!   non-negative where physics demands it.
//!
//! Tests and long experiment drivers run their simulations through the
//! auditor; a violation is a bug in the plant, never in the workload.
//!
//! The conservation audit reads the plant's itemized ledger, which only
//! literal [`PowerSystem::step`]s keep: the event kernel's chunks meter
//! delivered energy alone. The auditor steps literally itself and refuses
//! a plant that has already committed a chunk.

use culpeo_units::{Amps, Joules, Seconds};

use crate::{MonitorState, PowerSystem, StepOutput};

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Ledger and stored energy disagree beyond tolerance.
    EnergyImbalance {
        /// Simulation time at which the audit closed the ledger.
        t: Seconds,
        /// Actual `½CV²` change since the audit began.
        actual: Joules,
        /// Ledger-predicted change.
        expected: Joules,
    },
    /// The plant delivered power while the monitor demanded recharge.
    DeliveryWhileRecharging {
        /// Simulation time of the offence.
        t: Seconds,
    },
    /// A non-finite or impossible electrical value appeared.
    UnphysicalValue {
        /// Simulation time of the offence.
        t: Seconds,
        /// Description of the offending quantity.
        what: &'static str,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::EnergyImbalance {
                t,
                actual,
                expected,
            } => {
                write!(
                    f,
                    "energy imbalance at t = {t}: stored Δ{actual} vs ledger Δ{expected}"
                )
            }
            Violation::DeliveryWhileRecharging { t } => {
                write!(f, "delivered power during recharge at t = {t}")
            }
            Violation::UnphysicalValue { t, what } => {
                write!(f, "unphysical {what} at t = {t}")
            }
        }
    }
}

/// Wraps a [`PowerSystem`] and audits every step.
#[derive(Debug)]
pub struct Auditor<'a> {
    sys: &'a mut PowerSystem,
    e_start: Joules,
    ledger_start: crate::EnergyLedger,
    /// Relative energy tolerance (on the initial stored energy) plus an
    /// absolute floor; Euler integration carries O(dt) bookkeeping error.
    tolerance: f64,
    violations: Vec<Violation>,
    was_recharging: bool,
}

impl<'a> Auditor<'a> {
    /// Starts auditing `sys` with the default 0.2 % energy tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `sys` has no itemized ledger
    /// ([`PowerSystem::ledger`] is `None`): it has taken event-kernel
    /// chunks, so conservation cannot be audited from here.
    pub fn new(sys: &'a mut PowerSystem) -> Self {
        let e_start = sys.buffer().stored_energy();
        let ledger_start = sys
            .ledger()
            .expect("the auditor needs a plant that has taken literal steps only");
        let was_recharging = !sys.monitor().output_enabled();
        Self {
            sys,
            e_start,
            ledger_start,
            tolerance: 2e-3,
            violations: Vec::new(),
            was_recharging,
        }
    }

    /// Steps the underlying plant and audits the result.
    pub fn step(&mut self, i_load: Amps, dt: Seconds) -> StepOutput {
        let out = self.sys.step(i_load, dt);

        if !out.v_node.is_finite() || !out.i_in.is_finite() {
            self.violations.push(Violation::UnphysicalValue {
                t: out.t,
                what: "non-finite node state",
            });
        }
        if out.i_in.get() < -1e-12 {
            self.violations.push(Violation::UnphysicalValue {
                t: out.t,
                what: "negative booster input current",
            });
        }
        // Hysteresis: while the monitor demanded recharge at the start of
        // the step, nothing may have been delivered.
        if self.was_recharging && out.delivering {
            self.violations
                .push(Violation::DeliveryWhileRecharging { t: out.t });
        }
        self.was_recharging = out.monitor == MonitorState::Recharging;
        out
    }

    /// Finishes the audit: checks energy conservation over the whole run
    /// and returns all violations (empty = clean).
    #[must_use]
    pub fn finish(self) -> Vec<Violation> {
        let mut violations = self.violations;
        let e_end = self.sys.buffer().stored_energy();
        let actual = e_end - self.e_start;
        let ledger = self
            .sys
            .ledger()
            .expect("the auditor steps literally")
            .delta(&self.ledger_start);
        let expected = ledger.expected_storage_delta();
        let tol = self.e_start.get().abs() * self.tolerance + 1e-9;
        if (actual.get() - expected.get()).abs() > tol {
            violations.push(Violation::EnergyImbalance {
                t: self.sys.time(),
                actual,
                expected,
            });
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culpeo_units::Volts as V;

    #[test]
    fn clean_run_has_no_violations() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(V::new(2.3));
        let mut audit = Auditor::new(&mut sys);
        let dt = Seconds::from_micro(50.0);
        for k in 0..20_000 {
            let i = if k < 4000 {
                Amps::from_milli(25.0)
            } else {
                Amps::ZERO
            };
            audit.step(i, dt);
        }
        let violations = audit.finish();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn brownout_and_recharge_respect_hysteresis() {
        let mut sys = PowerSystem::builder()
            .harvester(crate::Harvester::ConstantCurrent(Amps::from_milli(10.0)))
            .initial_voltage(V::new(1.75))
            .build();
        let mut audit = Auditor::new(&mut sys);
        let dt = Seconds::from_micro(100.0);
        // Force a brownout, then keep demanding load through the recharge:
        // the auditor must not see delivery until V_high.
        for _ in 0..80_000 {
            audit.step(Amps::from_milli(50.0), dt);
        }
        let violations = audit.finish();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    #[should_panic(expected = "literal steps only")]
    fn refuses_a_plant_that_took_chunks() {
        let mut sys = PowerSystem::capybara();
        sys.set_buffer_voltage(V::new(2.3));
        let load = culpeo_loadgen::LoadProfile::constant(
            "task",
            Amps::from_milli(10.0),
            Seconds::from_milli(20.0),
        );
        let _ = sys.run_profile(&load, crate::RunConfig::coarse());
        let _ = Auditor::new(&mut sys);
    }

    #[test]
    fn violations_display() {
        let v = Violation::DeliveryWhileRecharging {
            t: Seconds::new(1.0),
        };
        assert!(v.to_string().contains("recharge"));
        let e = Violation::EnergyImbalance {
            t: Seconds::new(2.5),
            actual: Joules::new(1.0),
            expected: Joules::new(2.0),
        };
        assert!(e.to_string().contains("imbalance"));
        assert!(e.to_string().contains("t = "), "{e}");
        let u = Violation::UnphysicalValue {
            t: Seconds::ZERO,
            what: "x",
        };
        assert!(u.to_string().contains("unphysical"));
    }

    #[test]
    fn two_branch_and_harvest_runs_stay_clean() {
        let mut sys = PowerSystem::capybara_two_branch();
        sys.set_buffer_voltage(V::new(2.2));
        sys.set_harvester(crate::Harvester::ConstantPower(
            culpeo_units::Watts::from_milli(5.0),
        ));
        let mut audit = Auditor::new(&mut sys);
        let dt = Seconds::from_micro(50.0);
        for k in 0..40_000 {
            let i = if k % 4000 < 400 {
                Amps::from_milli(40.0)
            } else {
                Amps::from_milli(1.0)
            };
            audit.step(i, dt);
        }
        let violations = audit.finish();
        assert!(violations.is_empty(), "{violations:?}");
    }
}
