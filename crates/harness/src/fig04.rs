//! Figure 4: an ESR drop powers the device down with plenty of stored
//! energy remaining.
//!
//! The paper's motivating numbers: a LoRa-class 50 mA transmission on a
//! 10 Ω-ESR capacitor drops 500 mV — 62.5 % of a 2.4–1.6 V operating range
//! — so a transmission needing only a few percent of the stored energy
//! kills the device unless it starts high in the range. In the paper's
//! sketch the load draws 50 mA *directly* from the capacitor; here the
//! load sits behind the output booster, which inflates the capacitor-side
//! current by ~1.5× (voltage ratio over efficiency), so the same ~0.5 V
//! drop arises at ~5 Ω of ESR (plus the 100 ms droop). The phenomenon — power-off with ample
//! stored energy — is identical.

use culpeo_exec::{PhaseClock, Telemetry};
use culpeo_loadgen::peripheral::LoRaRadio;
use culpeo_powersim::{PowerSystem, RunConfig};
use culpeo_units::{Farads, Ohms, Volts};
use serde::Serialize;

/// One starting voltage's outcome in the Figure 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig04Row {
    /// Starting buffer voltage.
    pub v_start: f64,
    /// Whether the transmission completed.
    pub completed: bool,
    /// Energy stored at the moment the device cut out (or at completion),
    /// in joules.
    pub stored_energy_j: f64,
    /// Fraction of the initially stored energy still present at cutoff.
    pub energy_remaining_frac: f64,
    /// Minimum observed node voltage.
    pub v_min: f64,
}

/// The Figure 4 power system: a 45 mF buffer with 5 Ω of ESR (a single
/// small supercapacitor rather than a parallel bank) and a 2.4 V charge
/// target; the booster-side current makes this electrically equivalent to
/// the paper's 10 Ω direct-draw sketch.
fn fig04_plant() -> PowerSystem {
    let mut sys = PowerSystem::builder()
        .bank(Farads::from_milli(45.0), Ohms::new(5.0))
        .monitor(culpeo_powersim::VoltageMonitor::new(
            Volts::new(2.4),
            Volts::new(1.6),
        ))
        .build();
    sys.force_output_enabled();
    sys
}

/// Sweeps starting voltages across the operating range and reports where
/// the LoRa packet survives, with phase telemetry.
#[must_use]
pub fn run() -> (Vec<Fig04Row>, Telemetry) {
    let mut clock = PhaseClock::new(1);
    crate::preflight::require_clean_reference();
    let load = LoRaRadio::default().profile();
    let mut rows = Vec::new();
    for k in 0..=16 {
        let v_start = Volts::new(1.6 + 0.05 * f64::from(k));
        let mut sys = fig04_plant();
        sys.set_buffer_voltage(v_start);
        sys.force_output_enabled();
        let e0 = sys.buffer().stored_energy();
        let out = sys.run_profile(&load, RunConfig::default());
        let e_now = sys.buffer().stored_energy();
        rows.push(Fig04Row {
            v_start: v_start.get(),
            completed: out.completed(),
            stored_energy_j: e_now.get(),
            energy_remaining_frac: e_now.get() / e0.get(),
            v_min: out.v_min.get(),
        });
    }
    clock.mark("run");
    (rows, clock.finish())
}

/// Prints the survival boundary and the stranded energy.
pub fn print_table(rows: &[Fig04Row]) {
    println!("Figure 4: LoRa TX (50 mA) on a high-ESR buffer, V_off = 1.6 V");
    println!(
        "{:>9} {:>10} {:>14} {:>12} {:>9}",
        "V_start", "completed", "E_stored (J)", "E remaining", "V_min"
    );
    for r in rows {
        println!(
            "{:>9.2} {:>10} {:>14.4} {:>11.1}% {:>9.3}",
            r.v_start,
            r.completed,
            r.stored_energy_j,
            r.energy_remaining_frac * 100.0,
            r.v_min
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_strand_most_of_the_energy() {
        let rows = run().0;
        let failed: Vec<_> = rows.iter().filter(|r| !r.completed).collect();
        assert!(!failed.is_empty(), "some starting voltages must fail");
        for r in &failed {
            // Figure 4's point: the device dies with ample energy left.
            // Runs right at the survival boundary burn part of the pulse
            // before cutting out; even those keep the large majority.
            assert!(
                r.energy_remaining_frac > 0.8,
                "failed run at {} V kept only {:.0}% of its energy",
                r.v_start,
                r.energy_remaining_frac * 100.0
            );
        }
        // Far below the boundary the cutout is immediate: essentially all
        // the stored energy is stranded.
        let lowest = failed
            .iter()
            .min_by(|a, b| a.v_start.total_cmp(&b.v_start))
            .unwrap();
        assert!(lowest.energy_remaining_frac > 0.95);
    }

    #[test]
    fn survival_is_monotone_in_v_start() {
        let rows = run().0;
        // Once a start voltage completes, every higher one does too.
        let first_ok = rows.iter().position(|r| r.completed).unwrap();
        assert!(rows[first_ok..].iter().all(|r| r.completed));
        assert!(rows[..first_ok].iter().all(|r| !r.completed));
    }

    #[test]
    fn boundary_is_well_inside_the_operating_range() {
        // The paper's 10 Ω example puts the survival boundary around
        // 62.5 % of the range above V_off — far above V_off itself.
        let rows = run().0;
        let boundary = rows.iter().find(|r| r.completed).unwrap().v_start;
        assert!(
            boundary > 1.9,
            "boundary {boundary} should sit high in the range"
        );
        assert!(boundary < 2.4);
    }
}
