//! Property tests tying the static lint battery to the model
//! constructor: the battery's verdict must agree with what
//! `SystemSpec::into_model` will actually accept.
//!
//! * battery-clean (no error diagnostics) ⇒ `into_model` succeeds and
//!   the resulting `PowerSystemModel` is usable without panicking;
//! * structurally corrupted specs ⇒ the battery reports errors AND
//!   construction fails — the linter never waves through a spec that the
//!   constructor would reject.

use culpeo_analyze::{AnalysisInput, Registry, SystemSpec, TraceInput};
use culpeo_units::Hertz;
use proptest::prelude::*;

/// Builds a physically plausible spec from generated knobs: ordered
/// thresholds, a descending two-point ESR curve, ascending efficiency.
fn plausible_spec(
    capacitance_mf: f64,
    esr: f64,
    v_off: f64,
    headroom: f64,
    eff_low: f64,
) -> SystemSpec {
    let v_high = v_off + headroom;
    let mut spec = SystemSpec::capybara();
    spec.capacitance_mf = capacitance_mf;
    spec.esr_ohms = None;
    // Supercap-shaped: ESR falls with frequency.
    spec.esr_curve = Some(vec![(10.0, esr), (1000.0, esr * 0.7)]);
    spec.v_off = v_off;
    spec.v_high = v_high;
    spec.v_out = v_off + headroom * 0.95;
    spec.efficiency.points = vec![(v_off, eff_low), (v_high, (eff_low + 0.08).min(1.0))];
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Battery-clean specs construct, and the model answers queries
    /// across its operating range without panicking.
    #[test]
    fn battery_clean_specs_construct_a_usable_model(
        capacitance_mf in 1.0..500.0f64,
        esr in 0.05..8.0f64,
        v_off in 1.0..2.0f64,
        headroom in 0.2..1.5f64,
        eff_low in 0.5..0.9f64,
    ) {
        let spec = plausible_spec(capacitance_mf, esr, v_off, headroom, eff_low);
        let report =
            Registry::default_battery().run(&AnalysisInput::spec_only(&spec, "generated"));
        prop_assume!(!report.has_errors());
        let model = spec.clone().into_model();
        prop_assert!(
            model.is_ok(),
            "battery passed but construction failed: {:?}\nspec: {:?}",
            model.err(),
            spec
        );
        let model = model.unwrap();
        // Exercise the model across its domain; all queries must stay finite.
        for f in [1.0, 10.0, 100.0, 10_000.0] {
            prop_assert!(model.esr_at(Hertz::new(f)).is_finite());
        }
        for v in [model.v_off(), model.v_out(), model.v_high()] {
            let eff = model.efficiency_at(v);
            prop_assert!(eff.is_finite() && eff > 0.0 && eff <= 1.0);
        }
    }

    /// Structural corruption is caught twice over: the battery errors,
    /// and the constructor refuses the spec.
    #[test]
    fn corrupted_specs_error_and_fail_construction(
        kind in 0usize..6,
        capacitance_mf in 1.0..500.0f64,
        esr in 0.05..8.0f64,
    ) {
        let mut spec = plausible_spec(capacitance_mf, esr, 1.6, 0.9, 0.78);
        match kind {
            // Unsorted ESR curve.
            0 => spec.esr_curve = Some(vec![(1000.0, esr * 0.7), (10.0, esr)]),
            // Duplicate frequency.
            1 => spec.esr_curve = Some(vec![(10.0, esr), (10.0, esr * 0.9)]),
            // Non-finite curve point.
            2 => spec.esr_curve = Some(vec![(10.0, f64::NAN), (1000.0, esr)]),
            // Both ESR forms at once.
            3 => spec.esr_ohms = Some(esr),
            // Neither ESR form.
            4 => spec.esr_curve = None,
            // Collapsed thresholds.
            _ => {
                spec.v_off = 2.5;
                spec.v_high = 1.6;
            }
        }
        let report =
            Registry::default_battery().run(&AnalysisInput::spec_only(&spec, "corrupted"));
        prop_assert!(
            report.has_errors(),
            "corruption kind {kind} slipped past the battery: {:?}",
            spec
        );
        prop_assert!(
            spec.into_model().is_err(),
            "corruption kind {kind} slipped past the constructor"
        );
    }

    /// The battery itself never panics, whatever finite samples a trace
    /// carries — including negative currents and pathological dt.
    #[test]
    fn battery_is_total_over_finite_traces(
        dt_us in 1.0..1000.0f64,
        amplitude_ma in -50.0..50.0f64,
        n in 1usize..200,
    ) {
        let spec = SystemSpec::capybara();
        let samples: Vec<f64> = (0..n)
            .map(|i| amplitude_ma * 1e-3 * if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let trace = TraceInput {
            locus: "generated trace".to_string(),
            label: "generated".to_string(),
            dt_s: dt_us * 1e-6,
            samples,
            timestamps: None,
        };
        let traces = vec![trace];
        let input = AnalysisInput::new(&spec, "capybara", &traces, None, "");
        let report = Registry::default_battery().run(&input);
        // Verdict is unconstrained; totality is the property.
        let _ = report.render_json();
        let _ = report.render_human(false);
    }
}
