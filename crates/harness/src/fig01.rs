//! Figure 1(b): the ESR drop and rebound on a real voltage trace.
//!
//! A pulse on the high-ESR bank produces a total drop far larger than the
//! energy-consumption drop alone; the difference — the "missed drop" — is
//! what energy-only charge management never sees.

use culpeo_exec::{PhaseClock, Telemetry};
use culpeo_loadgen::synthetic::PulseLoad;
use culpeo_powersim::{RunConfig, VoltageSample};
use culpeo_units::{Amps, Seconds, Volts};
use serde::Serialize;

use crate::reference_plant;

/// One point of the Figure 1(b) trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TracePoint {
    /// Time since the load began, in seconds.
    pub t: f64,
    /// Observable buffer voltage, in volts.
    pub v_cap: f64,
}

/// The Figure 1(b) dataset: the voltage trace plus the three annotated
/// drops.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig01 {
    /// Voltage before the load.
    pub v_before: f64,
    /// Minimum voltage during the load.
    pub v_min: f64,
    /// Voltage after the rebound settles.
    pub v_after: f64,
    /// `v_before − v_min`: everything an observer sees.
    pub total_drop: f64,
    /// `v_before − v_after`: the part explained by consumed energy.
    pub energy_drop: f64,
    /// `v_after − v_min`: the ESR drop an energy model misses.
    pub missed_drop: f64,
    /// The decimated voltage trace.
    pub trace: Vec<TracePoint>,
}

/// Runs the Figure 1(b) experiment: a 25 mA / 10 ms pulse with a compute
/// tail, from 2.2 V on the reference bank, with phase telemetry.
#[must_use]
pub fn run() -> (Fig01, Telemetry) {
    let mut clock = PhaseClock::new(1);
    crate::preflight::require_clean_reference();
    let mut sys = reference_plant();
    sys.set_buffer_voltage(Volts::new(2.2));
    let load = PulseLoad::new(Amps::from_milli(25.0), Seconds::from_milli(10.0)).profile();
    let out = sys.run_profile(
        &load,
        RunConfig {
            record_stride: 64,
            ..RunConfig::default()
        },
    );
    assert!(out.completed(), "figure 1b pulse must complete");
    let trace = out
        .trace
        .samples()
        .iter()
        .map(|&VoltageSample { t, v_node, .. }| TracePoint {
            t: t.get(),
            v_cap: v_node.get(),
        })
        .collect();
    let fig = Fig01 {
        v_before: out.v_start.get(),
        v_min: out.v_min.get(),
        v_after: out.v_final.get(),
        total_drop: (out.v_start - out.v_min).get(),
        energy_drop: (out.v_start - out.v_final).get(),
        missed_drop: out.v_delta().get(),
        trace,
    };
    clock.mark("run");
    (fig, clock.finish())
}

/// Prints the annotated drops as the paper describes them.
pub fn print_table(fig: &Fig01) {
    println!("Figure 1(b): ESR drop and rebound (25 mA/10 ms pulse + compute tail)");
    println!("  V_before     = {:.3} V", fig.v_before);
    println!("  V_min        = {:.3} V", fig.v_min);
    println!("  V_after      = {:.3} V", fig.v_after);
    println!("  total drop   = {:.3} V", fig.total_drop);
    println!(
        "  energy drop  = {:.3} V  (all an energy model accounts for)",
        fig.energy_drop
    );
    println!(
        "  missed drop  = {:.3} V  (ESR-induced, rebounds after the load)",
        fig.missed_drop
    );
    println!(
        "  ratio missed/energy = {:.2}×",
        fig.missed_drop / fig.energy_drop.max(1e-9)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missed_drop_dominates_energy_drop() {
        let fig = run().0;
        // The paper's headline: the ESR drop (0.35 V there) exceeds the
        // energy drop (0.25 V there). Shapes differ with parameters; we
        // require the missed drop to be substantial and comparable.
        assert!(fig.missed_drop > 0.05, "missed = {}", fig.missed_drop);
        assert!(
            fig.missed_drop > 0.5 * fig.energy_drop,
            "missed {} vs energy {}",
            fig.missed_drop,
            fig.energy_drop
        );
        // Consistency: total = energy + missed.
        assert!((fig.total_drop - fig.energy_drop - fig.missed_drop).abs() < 1e-9);
    }

    #[test]
    fn trace_shows_dip_and_rebound() {
        let fig = run().0;
        assert!(fig.trace.len() > 50);
        let min_in_trace = fig
            .trace
            .iter()
            .map(|p| p.v_cap)
            .fold(f64::INFINITY, f64::min);
        // The decimated trace still shows most of the dip.
        assert!(min_in_trace < fig.v_after - 0.8 * fig.missed_drop);
    }
}
