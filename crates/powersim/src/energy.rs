//! Energy bookkeeping across a simulation run.

use culpeo_units::Joules;

/// A ledger of where every joule went during a run.
///
/// The simulator's conservation invariant — stored-energy change equals
/// harvested energy minus delivered energy minus losses — is the property
/// tests' anchor: if the plant leaks energy numerically, every `V_safe`
/// comparison downstream is suspect.
///
/// Only literal [`crate::PowerSystem::step`]s itemize every field. The
/// event kernel's chunks meter `delivered` alone, so a plant that has
/// committed one reports no ledger ([`crate::PowerSystem::ledger`] is
/// `None`) and its delivered energy through
/// [`crate::PowerSystem::delivered`]. Conservation is audited on literal
/// steps: the [`crate::Auditor`] and the fixed-step property tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// Energy delivered to the load at the regulated output.
    pub delivered: Joules,
    /// Energy dissipated in branch ESRs (`Σ I²R·dt`).
    pub esr_loss: Joules,
    /// Energy lost in the output booster (`P_in − P_out`).
    pub booster_loss: Joules,
    /// Energy drained by capacitor leakage.
    pub leakage_loss: Joules,
    /// Energy delivered into the buffer by the harvester.
    pub harvested: Joules,
}

impl EnergyLedger {
    /// A fresh, all-zero ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy that left the buffer (delivered plus every loss).
    #[must_use]
    pub fn total_outflow(&self) -> Joules {
        self.delivered + self.esr_loss + self.booster_loss + self.leakage_loss
    }

    /// The expected change in stored energy: harvested minus outflow.
    /// Compare against the buffer's actual `½CV²` delta to audit
    /// conservation.
    #[must_use]
    pub fn expected_storage_delta(&self) -> Joules {
        self.harvested - self.total_outflow()
    }

    /// The movements recorded since `before` was captured: every field of
    /// `self` minus the same field of `before`.
    ///
    /// `run_profile` snapshots the cumulative ledger at entry and reports
    /// `final.delta(&snapshot)`; keeping the subtraction here means a new
    /// ledger field cannot be silently dropped from per-run reporting.
    #[must_use]
    pub fn delta(&self, before: &EnergyLedger) -> EnergyLedger {
        EnergyLedger {
            delivered: self.delivered - before.delivered,
            esr_loss: self.esr_loss - before.esr_loss,
            booster_loss: self.booster_loss - before.booster_loss,
            leakage_loss: self.leakage_loss - before.leakage_loss,
            harvested: self.harvested - before.harvested,
        }
    }

    /// Merges another ledger into this one (e.g. accumulating per-task
    /// ledgers into a per-trial total).
    pub fn absorb(&mut self, other: &EnergyLedger) {
        self.delivered += other.delivered;
        self.esr_loss += other.esr_loss;
        self.booster_loss += other.booster_loss;
        self.leakage_loss += other.leakage_loss;
        self.harvested += other.harvested;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outflow_sums_components() {
        let l = EnergyLedger {
            delivered: Joules::new(1.0),
            esr_loss: Joules::new(0.2),
            booster_loss: Joules::new(0.3),
            leakage_loss: Joules::new(0.1),
            harvested: Joules::new(2.0),
        };
        assert!(l.total_outflow().approx_eq(Joules::new(1.6), 1e-12));
        assert!(l
            .expected_storage_delta()
            .approx_eq(Joules::new(0.4), 1e-12));
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = EnergyLedger::new();
        let b = EnergyLedger {
            delivered: Joules::new(1.0),
            ..EnergyLedger::new()
        };
        a.absorb(&b);
        a.absorb(&b);
        assert!(a.delivered.approx_eq(Joules::new(2.0), 1e-12));
    }
}
