//! Ground truth: the guided search ≡ the plain bisection.
//!
//! `true_vsafe_batch` and `true_vsafe_cached` place their probes by the
//! completing probes' dips and infer most midpoints' verdicts, while
//! `true_vsafe` simulates every midpoint of the plain bisection. This
//! suite checks that they return the *same bits* on generated loads
//! (uniform pulses, pulses with a compute tail, ramps, bursts, and noisy
//! gesture, BLE and MNIST envelopes) and on a zero-current and an
//! infeasible load, on four plants: the two-branch reference, the
//! single-branch Capybara, a weak 45 mF / 8 Ω bank and an aged reference.
//! It also checks the returned certificate (the `V_safe` completes and the
//! leaf below it fails, each by a direct simulation), the monotonicity
//! the search rests on, the search's fallback on a plant where its first
//! guess is wrong, and how many plants a search builds.

use std::sync::atomic::{AtomicUsize, Ordering};

use culpeo_harness::aging::aged_plant;
use culpeo_harness::ground_truth::{
    completes_from, true_vsafe, true_vsafe_batch, true_vsafe_cached, TOLERANCE,
};
use culpeo_harness::reference_plant;
use culpeo_loadgen::peripheral::{BleRadio, GestureSensor, MnistAccelerator};
use culpeo_loadgen::synthetic::{PulseLoad, UniformLoad};
use culpeo_loadgen::{noise, LoadProfile};
use culpeo_powersim::{PowerSystem, RunConfig};
use culpeo_units::{Amps, Farads, Hertz, Ohms, Quantity as _, Seconds, Volts};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

type MakeSystem = fn() -> PowerSystem;

fn single_branch() -> PowerSystem {
    let mut sys = PowerSystem::capybara();
    sys.force_output_enabled();
    sys
}

fn weak_bank() -> PowerSystem {
    let mut sys = PowerSystem::capybara_with_bank(Farads::from_milli(45.0), Ohms::new(8.0));
    sys.force_output_enabled();
    sys
}

fn aged() -> PowerSystem {
    aged_plant(1.2)
}

/// A 2 mF / 0.5 Ω bank: energy, not ESR, sets its long loads' boundary,
/// so the dip there is far more than 1.7× the dip from `V_high`.
fn tiny_bank() -> PowerSystem {
    let mut sys = PowerSystem::capybara_with_bank(Farads::from_milli(2.0), Ohms::new(0.5));
    sys.force_output_enabled();
    sys
}

/// The four plants, each with a cache key of its own.
const PLANTS: [(&str, MakeSystem); 4] = [
    ("oracle-reference", reference_plant),
    ("oracle-single-branch", single_branch),
    ("oracle-weak-bank", weak_bank),
    ("oracle-aged", aged),
];

/// A noisy copy of a peripheral envelope, 256 holds long.
fn noisy(kind: usize, seed: u64) -> LoadProfile {
    let base = match kind {
        0 => GestureSensor::default().profile(),
        1 => BleRadio::default().profile(),
        _ => MnistAccelerator::default().profile(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let rate = Hertz::new(256.0 / base.duration().get());
    let trace = noise::gaussian(&base.sample(rate), base.peak() * 0.05, &mut rng);
    let mut b = LoadProfile::builder(format!("{}~noisy{seed}", base.label()));
    for &s in trace.samples() {
        b = b.hold(s, trace.dt());
    }
    b.build()
}

/// Milliamps from 1 to 100 and milliseconds from 0.1 to 100, both
/// log-uniform.
fn pulse_shape() -> impl Strategy<Value = (Amps, Seconds)> {
    (0.0..2.0f64, -1.0..2.0f64).prop_map(|(ma, ms)| {
        (
            Amps::from_milli(10f64.powf(ma)),
            Seconds::from_milli(10f64.powf(ms)),
        )
    })
}

fn load() -> impl Strategy<Value = LoadProfile> {
    prop_oneof![
        pulse_shape().prop_map(|(i, t)| UniformLoad::new(i, t).profile()),
        pulse_shape().prop_map(|(i, t)| PulseLoad::new(i, t).profile()),
        (pulse_shape(), 0.0..1.0f64).prop_map(|((i, t), to)| {
            LoadProfile::builder(format!("ramp {i} to {to}·{i} over {t}"))
                .ramp(i, i * to, t)
                .build()
        }),
        (pulse_shape(), 0.1..1.0f64, 1.0..10.0f64).prop_map(|((i, t), duty, periods)| {
            LoadProfile::builder(format!("burst {i}, duty {duty}, {periods} periods of {t}"))
                .burst(i, i * 0.1, t / periods, duty, t)
                .build()
        }),
        (0..3usize, 0..u64::MAX).prop_map(|(kind, seed)| noisy(kind, seed)),
    ]
}

/// The zero-current and the infeasible load.
fn edge_loads() -> Vec<LoadProfile> {
    vec![
        LoadProfile::constant("idle", Amps::ZERO, Seconds::from_milli(10.0)),
        LoadProfile::constant("absurd", Amps::new(2.0), Seconds::from_milli(10.0)),
    ]
}

/// The plain bisection's leaf pair whose upper end is `v_safe`: the lerp
/// chain from `[V_off, V_high]` with every midpoint at or above `v_safe`
/// passing.
fn leaf_ending_at(make: MakeSystem, v_safe: Volts) -> (Volts, Volts) {
    let sys = make();
    let mut lo = sys.monitor().v_off();
    let mut hi = sys.monitor().v_high();
    while (hi - lo).get() > TOLERANCE.get() {
        let mid = lo.lerp(hi, 0.5);
        if mid >= v_safe {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (lo, hi)
}

/// Checks the guided results for `loads` against the plain bisection, bit
/// for bit, and each `V_safe`'s certificate.
fn check_plant(key: &str, make: MakeSystem, loads: &[LoadProfile]) {
    let plain: Vec<Option<Volts>> = loads.iter().map(|l| true_vsafe(&make, l)).collect();
    let batch = true_vsafe_batch(key, &make, loads);
    let bits = |v: &[Option<Volts>]| {
        v.iter()
            .map(|v| v.map(|v| v.get().to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&batch), bits(&plain), "{key}: batch vs plain");
    for (load, &expect) in loads.iter().zip(&plain) {
        let cached = true_vsafe_cached(key, &make, load);
        assert_eq!(bits(&[cached]), bits(&[expect]), "{key}: cached vs plain");
        match expect {
            None => assert!(!completes_from(&make, load, make().monitor().v_high())),
            Some(v_safe) => {
                let (lo, hi) = leaf_ending_at(make, v_safe);
                assert_eq!(hi, v_safe, "{key}, {}: not a leaf end", load.label());
                assert!(
                    completes_from(&make, load, v_safe),
                    "{key}, {}",
                    load.label()
                );
                // The plain bisection takes V_off as failing; it never
                // simulates there.
                if lo > make().monitor().v_off() {
                    assert!(!completes_from(&make, load, lo), "{key}, {}", load.label());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn guided_search_returns_the_plain_bisections_bits(
        loads in proptest::collection::vec(load(), 1..4),
        plant in 0..PLANTS.len(),
    ) {
        let (key, make) = PLANTS[plant];
        check_plant(key, make, &loads);
    }

    /// If a load completes from `v`, it completes from `v + δ`: sampled
    /// within a few leaves of the boundary, where the search infers most.
    #[test]
    fn completion_is_monotone_in_the_start_voltage(
        load in load(),
        plant in 0..PLANTS.len(),
        at in -15.0..15.0f64,
        delta in 0.05..10.0f64,
    ) {
        let (key, make) = PLANTS[plant];
        let Some(v_safe) = true_vsafe_cached(key, &make, &load) else {
            return Ok(());
        };
        let sys = make();
        let (v_off, v_high) = (sys.monitor().v_off(), sys.monitor().v_high());
        let v = (v_safe + Volts::from_milli(at)).max(v_off).min(v_high);
        let higher = (v + Volts::from_milli(delta)).min(v_high);
        if completes_from(&make, &load, v) {
            prop_assert!(
                completes_from(&make, &load, higher),
                "{} completes from {v} but not from {higher}",
                load.label()
            );
        }
    }
}

#[test]
fn evaluation_and_edge_loads_match_on_every_plant() {
    let mut loads = culpeo_loadgen::synthetic::fig10_loads();
    loads.extend((0..3).map(|kind| noisy(kind, 0)));
    loads.extend(edge_loads());
    for (key, make) in PLANTS {
        check_plant(key, make, &loads);
    }
}

/// Plants a `true_vsafe_batch` call builds: one reference plus one per
/// simulated probe.
fn plants_built(key: &str, make: MakeSystem, loads: &[LoadProfile]) -> usize {
    let built = AtomicUsize::new(0);
    let counted = || {
        built.fetch_add(1, Ordering::Relaxed);
        make()
    };
    let _ = true_vsafe_batch(key, &counted, loads);
    built.load(Ordering::Relaxed)
}

#[test]
fn a_warm_call_builds_one_plant_and_simulates_nothing() {
    let loads: Vec<LoadProfile> = culpeo_loadgen::synthetic::fig10_loads()
        .into_iter()
        .take(6)
        .chain(edge_loads())
        .collect();
    let cold = plants_built("oracle-count", reference_plant, &loads);
    // At least the V_high probe per load, and no more than the plain
    // search's nine.
    assert!(cold > loads.len() && cold <= 1 + 9 * loads.len(), "{cold}");
    assert_eq!(plants_built("oracle-count", reference_plant, &loads), 1);
    assert_eq!(
        plants_built("oracle-count", reference_plant, &loads[2..3]),
        1
    );
}

/// On the tiny bank the first guess misses by tens of millivolts, and
/// the secant after it can still land a few leaves low. Creeping up one
/// leaf per jump from there cost more than the plain search on the 1 mA /
/// 1 s load; falling back to the plain midpoint keeps every load within
/// the plain search's nine probes.
#[test]
fn fallback_keeps_probes_within_the_plain_search_when_the_first_guess_is_wrong() {
    let make: MakeSystem = tiny_bank;
    let sys = make();
    let (v_off, v_high) = (sys.monitor().v_off(), sys.monitor().v_high());
    for (ma, ms) in [
        (10.0, 100.0),
        (20.0, 50.0),
        (5.0, 100.0),
        (2.0, 300.0),
        (1.0, 1000.0),
        (30.0, 20.0),
    ] {
        let load = UniformLoad::new(Amps::from_milli(ma), Seconds::from_milli(ms)).profile();
        let truth = true_vsafe(&make, &load).expect("feasible on the tiny bank");
        // The first jump's guess, from the dip at V_high.
        let mut sys = make();
        sys.set_buffer_voltage(v_high);
        let v_min = sys
            .run_profile(&load, RunConfig::probe(load.duration()))
            .v_min;
        let guess = v_off + (v_high - v_min) * 1.7;
        assert!(
            (guess - truth).get().abs() > 10.0 * TOLERANCE.get(),
            "{}: guess {guess} is near the boundary {truth}",
            load.label()
        );
        let probes = plants_built("oracle-tiny-bank", make, std::slice::from_ref(&load)) - 1;
        assert!(probes <= 9, "{}: {probes} probes", load.label());
        assert_eq!(
            true_vsafe_cached("oracle-tiny-bank", &make, &load),
            Some(truth)
        );
    }
}
