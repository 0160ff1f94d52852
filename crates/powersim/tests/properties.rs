//! Property-based tests of the simulated plant's physics, on the reference
//! fixed-step loop (`PowerSystem::run_profile_reference`).

use culpeo_loadgen::LoadProfile;
use culpeo_powersim::{PowerSystem, RunConfig};
use culpeo_units::{Amps, Farads, Ohms, Seconds, Volts};
use proptest::prelude::*;

fn system(c_mf: f64, esr: f64, v0: f64) -> PowerSystem {
    let mut sys = PowerSystem::capybara_with_bank(Farads::from_milli(c_mf), Ohms::new(esr));
    sys.set_buffer_voltage(Volts::new(v0));
    sys.force_output_enabled();
    sys
}

fn fast_cfg() -> RunConfig {
    RunConfig {
        dt: Seconds::from_micro(50.0),
        ..RunConfig::default().without_trace()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ESR drop rebounds: for a completed pulse, the final settled
    /// voltage always exceeds the minimum seen under load.
    #[test]
    fn rebound_exceeds_minimum(
        i_ma in 1.0..40.0f64,
        w_ms in 1.0..50.0f64,
        esr in 0.5..5.0f64,
    ) {
        let mut sys = system(45.0, esr, 2.45);
        let load = LoadProfile::constant("p", Amps::from_milli(i_ma), Seconds::from_milli(w_ms));
        let out = sys.run_profile_reference(&load, fast_cfg());
        prop_assume!(out.completed());
        prop_assert!(out.v_final >= out.v_min);
        prop_assert!(out.v_delta().get() >= 0.0);
    }

    /// Energy conservation: the buffer's ½CV² delta matches the ledger.
    #[test]
    fn energy_ledger_balances(
        i_ma in 1.0..30.0f64,
        w_ms in 1.0..50.0f64,
        v0 in 2.0..2.5f64,
    ) {
        let mut sys = system(45.0, 3.3, v0);
        let e0 = sys.buffer().stored_energy();
        let load = LoadProfile::constant("p", Amps::from_milli(i_ma), Seconds::from_milli(w_ms));
        let out = sys.run_profile_reference(&load, fast_cfg());
        prop_assume!(out.completed());
        let e1 = sys.buffer().stored_energy();
        let actual = e1 - e0;
        let expected = out
            .ledger
            .expect("the reference loop itemizes every step")
            .expected_storage_delta();
        let tol = e0.get() * 1e-3 + 1e-7;
        prop_assert!(
            actual.approx_eq(expected, tol),
            "actual {} vs expected {}", actual, expected
        );
    }

    /// The under-load drop grows monotonically with ESR.
    #[test]
    fn drop_monotone_in_esr(
        i_ma in 5.0..40.0f64,
        esr_lo in 0.5..2.0f64,
        esr_extra in 0.5..4.0f64,
    ) {
        let load = LoadProfile::constant("p", Amps::from_milli(i_ma), Seconds::from_milli(5.0));
        let mut lo = system(45.0, esr_lo, 2.45);
        let mut hi = system(45.0, esr_lo + esr_extra, 2.45);
        let out_lo = lo.run_profile_reference(&load, fast_cfg());
        let out_hi = hi.run_profile_reference(&load, fast_cfg());
        prop_assume!(out_lo.completed() && out_hi.completed());
        prop_assert!(out_hi.v_min <= out_lo.v_min);
    }

    /// The under-load drop grows monotonically with load current.
    #[test]
    fn drop_monotone_in_current(
        i_lo in 2.0..20.0f64,
        i_extra in 1.0..20.0f64,
    ) {
        let w = Seconds::from_milli(5.0);
        let mut a = system(45.0, 3.3, 2.45);
        let mut b = system(45.0, 3.3, 2.45);
        let out_a = a.run_profile_reference(&LoadProfile::constant("a", Amps::from_milli(i_lo), w), fast_cfg());
        let out_b = b.run_profile_reference(
            &LoadProfile::constant("b", Amps::from_milli(i_lo + i_extra), w),
            fast_cfg(),
        );
        prop_assume!(out_a.completed() && out_b.completed());
        prop_assert!(out_b.v_min <= out_a.v_min);
    }

    /// A bigger bank sags less under the same load.
    #[test]
    fn larger_capacitance_sags_less(
        c_lo in 10.0..40.0f64,
        c_extra in 10.0..60.0f64,
        i_ma in 2.0..25.0f64,
    ) {
        let load = LoadProfile::constant("p", Amps::from_milli(i_ma), Seconds::from_milli(20.0));
        let mut small = system(c_lo, 3.3, 2.45);
        let mut big = system(c_lo + c_extra, 3.3, 2.45);
        let out_s = small.run_profile_reference(&load, fast_cfg());
        let out_b = big.run_profile_reference(&load, fast_cfg());
        prop_assume!(out_s.completed() && out_b.completed());
        // Same ESR ⇒ similar instantaneous drop, but the energy droop is
        // smaller for the bigger bank, so its final voltage is higher.
        prop_assert!(out_b.v_final >= out_s.v_final - Volts::from_micro(100.0));
    }

    /// Starting higher never hurts: a run from a higher voltage reaches a
    /// minimum at least as high.
    #[test]
    fn higher_start_higher_minimum(
        v_lo in 1.9..2.3f64,
        dv in 0.02..0.2f64,
        i_ma in 2.0..40.0f64,
    ) {
        let load = LoadProfile::constant("p", Amps::from_milli(i_ma), Seconds::from_milli(10.0));
        let mut a = system(45.0, 3.3, v_lo);
        let mut b = system(45.0, 3.3, v_lo + dv);
        let out_a = a.run_profile_reference(&load, fast_cfg());
        let out_b = b.run_profile_reference(&load, fast_cfg());
        prop_assume!(out_a.completed() && out_b.completed());
        prop_assert!(out_b.v_min >= out_a.v_min - Volts::from_micro(10.0));
    }

    /// On the reference loop, recording is purely an output-shape option:
    /// a run that records no trace reports bit-identical `(v_min, t_min,
    /// v_final, brownout, collapsed)` to the same run with a full trace.
    #[test]
    fn reference_trace_is_output_shape_only(
        i_ma in 1.0..60.0f64,
        w_ms in 1.0..60.0f64,
        burst_ma in 0.0..30.0f64,
        v0 in 1.8..2.5f64,
    ) {
        let load = LoadProfile::builder("mix")
            .hold(Amps::from_milli(i_ma), Seconds::from_milli(w_ms))
            .ramp(Amps::from_milli(i_ma), Amps::from_milli(1.0), Seconds::from_milli(5.0))
            .burst(
                Amps::from_milli(i_ma + burst_ma),
                Amps::from_milli(1.0),
                Seconds::from_milli(2.0),
                0.5,
                Seconds::from_milli(10.0),
            )
            .build();
        let full_cfg = RunConfig {
            dt: Seconds::from_micro(50.0),
            record_stride: Some(4),
            ..RunConfig::default()
        };
        let mut a = system(45.0, 3.3, v0);
        let mut b = system(45.0, 3.3, v0);
        let full = a.run_profile_reference(&load, full_cfg);
        let summary = b.run_profile_reference(&load, full_cfg.without_trace());
        prop_assert_eq!(full.v_start, summary.v_start);
        prop_assert_eq!(full.v_min, summary.v_min);
        prop_assert_eq!(full.t_min, summary.t_min);
        prop_assert_eq!(full.v_final, summary.v_final);
        prop_assert_eq!(full.brownout, summary.brownout);
        prop_assert_eq!(full.collapsed, summary.collapsed);
        // And the summary run really recorded nothing.
        prop_assert!(summary.trace.is_empty());
    }

    /// The monitor enforces its invariant: while output is enabled the
    /// observed node voltage never goes below V_off for more than one step.
    #[test]
    fn monitor_cuts_at_v_off(
        v0 in 1.65..2.0f64,
        i_ma in 20.0..60.0f64,
    ) {
        let mut sys = system(45.0, 3.3, v0);
        let load = LoadProfile::constant("p", Amps::from_milli(i_ma), Seconds::from_milli(200.0));
        let out = sys.run_profile_reference(&load, fast_cfg());
        if out.brownout.is_some() {
            // After a brownout the monitor refuses delivery.
            let next = sys.step(Amps::from_milli(1.0), Seconds::from_micro(50.0));
            prop_assert!(!next.delivering);
        }
    }
}
