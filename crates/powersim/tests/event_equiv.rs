//! Event-kernel ≡ fixed-step equivalence, from the public API.
//!
//! The event kernel's contract: for any supported plant and load, the
//! brownout *verdict* matches the fixed-step reference exactly, and the
//! summary voltages (`v_min`, `v_final`, final plant state) match within
//! 1e-9 V. The kernel guarantees this by construction — it only
//! analytically advances inside a guard band away from every threshold,
//! and real-steps the rest — and this suite checks the construction from
//! outside: a randomized property over plants, harvesters, and
//! multi-segment profiles, plus a unit battery pinning the crossing
//! detection at the `V_high`/`V_off` boundaries and degenerate segments,
//! a plant battery reaching every chunk shape (2-, 3- and 4-branch banks
//! under every charge mode, windowed sources flipping inside constant
//! pieces, constant-power ramps, single-branch strides, out-of-scope
//! plants), and the idle-span break of `EventStepper::run_idle_until`
//! (the step the open-circuit voltage reaches a level or the monitor
//! changes state). The delivered-energy meter, the one energy figure both
//! kernels keep, agrees to 1e-12 relative across the plant battery.

use culpeo_loadgen::LoadProfile;
use culpeo_powersim::{
    BreakOn, CapacitorBranch, EventStepper, Harvester, KernelCounters, MonitorState, PowerSystem,
    RunConfig, SpanEnd,
};
use culpeo_units::{Amps, Farads, Ohms, Seconds, Volts, Watts};
use proptest::prelude::*;

fn probe_cfg(dt_us: f64) -> RunConfig {
    RunConfig {
        dt: Seconds::from_micro(dt_us),
        ..RunConfig::default().without_trace()
    }
}

/// Runs `profile` through `run_profile` (the event kernel, for an untraced
/// `cfg` on a covered plant) and the fixed-step reference, and checks the
/// equivalence contract: verdict-exact, summaries within 1e-9 V.
fn assert_kernels_agree(sys: &PowerSystem, profile: &LoadProfile, cfg: RunConfig) {
    let mut fixed_sys = sys.clone();
    let mut event_sys = sys.clone();
    let fixed = fixed_sys.run_profile_reference(profile, cfg);
    let event = event_sys.run_profile(profile, cfg);
    assert_eq!(
        fixed.brownout.is_some(),
        event.brownout.is_some(),
        "verdict mismatch on '{}': fixed {:?} event {:?}",
        profile.label(),
        fixed.brownout,
        event.brownout
    );
    assert_eq!(fixed.collapsed, event.collapsed, "collapse flag mismatch");
    assert!(
        (fixed.v_min - event.v_min).abs().get() < 1e-9,
        "v_min on '{}': fixed {} event {}",
        profile.label(),
        fixed.v_min,
        event.v_min
    );
    assert!(
        (fixed.v_final - event.v_final).abs().get() < 1e-9,
        "v_final on '{}': fixed {} event {}",
        profile.label(),
        fixed.v_final,
        event.v_final
    );
    assert!(
        (fixed_sys.v_node() - event_sys.v_node()).abs().get() < 1e-9,
        "plant state diverged on '{}'",
        profile.label()
    );
}

fn plant(c_mf: f64, esr: f64, v0: f64, harvester: Harvester) -> PowerSystem {
    let mut sys = PowerSystem::capybara_with_bank(Farads::from_milli(c_mf), Ohms::new(esr));
    sys.set_harvester(harvester);
    sys.set_buffer_voltage(Volts::new(v0));
    sys.force_output_enabled();
    sys
}

fn arb_harvester() -> impl Strategy<Value = Harvester> {
    prop_oneof![
        Just(Harvester::Off),
        (0.5..8.0f64).prop_map(|ma| Harvester::ConstantCurrent(Amps::from_milli(ma))),
        (1.0..12.0f64).prop_map(|mw| Harvester::ConstantPower(Watts::from_milli(mw))),
        ((1.0..6.0f64), (0.5..5.0f64), (0.2..0.8f64)).prop_map(|(ma, per_ms, duty)| {
            Harvester::Windowed {
                i: Amps::from_milli(ma),
                period: Seconds::from_milli(per_ms),
                duty,
                phase: Seconds::ZERO,
            }
        }),
    ]
}

/// One random load segment: (kind, current a, current b, duration).
type Seg = (u8, f64, f64, f64);

fn arb_profile() -> impl Strategy<Value = LoadProfile> {
    proptest::collection::vec((0u8..3, 1.0..45.0f64, 0.5..45.0f64, 0.3..20.0f64), 1..4).prop_map(
        |segs: Vec<Seg>| {
            let mut b = LoadProfile::builder("equiv");
            for (kind, ia, ib, ms) in segs {
                let (ia, ib) = (Amps::from_milli(ia), Amps::from_milli(ib));
                let w = Seconds::from_milli(ms);
                b = match kind {
                    0 => b.hold(ia, w),
                    1 => b.ramp(ia, ib, w),
                    _ => b.burst(ia.max(ib), ia.min(ib), Seconds::from_micro(800.0), 0.4, w),
                };
            }
            b.build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized specs and traces: any supported plant × harvester ×
    /// multi-segment profile gives the same verdict under both kernels,
    /// with summaries within 1e-9 V.
    #[test]
    fn event_kernel_matches_fixed_step(
        c_mf in 20.0..80.0f64,
        esr in 0.5..6.0f64,
        v0 in 1.7..2.48f64,
        coarse_dt in 0u8..2,
        harvester in arb_harvester(),
        profile in arb_profile(),
    ) {
        let sys = plant(c_mf, esr, v0, harvester);
        let dt_us = if coarse_dt == 0 { 50.0 } else { 10.0 };
        assert_kernels_agree(&sys, &profile, probe_cfg(dt_us));
    }
}

// ---- unit battery: threshold crossings and degenerate segments ----

#[test]
fn crossing_detection_pinned_around_v_off() {
    // Scan start voltages across the brownout boundary in sub-guard-band
    // 0.5 mV increments: every verdict flip must happen at the same grid
    // point under both kernels.
    let probe = plant(45.0, 3.0, 2.0, Harvester::Off);
    let v_off = probe.monitor().v_off().get();
    let load = LoadProfile::constant("edge", Amps::from_milli(30.0), Seconds::from_milli(12.0));
    for k in 0..40 {
        let v0 = v_off + 0.05 + k as f64 * 5e-4;
        let sys = plant(45.0, 3.0, v0, Harvester::Off);
        assert_kernels_agree(&sys, &load, probe_cfg(10.0));
    }
}

#[test]
fn crossing_detection_pinned_around_v_high() {
    // Charging into the V_high rail: start inside the guard band, at the
    // rail, and just below it. The harvester must cut off on the same
    // step under both kernels for the summaries to agree.
    let probe = plant(45.0, 1.0, 2.0, Harvester::Off);
    let v_high = probe.monitor().v_high().get();
    let load = LoadProfile::constant(
        "trickle",
        Amps::from_micro(200.0),
        Seconds::from_milli(40.0),
    );
    for dv in [0.0, 2e-4, 5e-4, 1.5e-3, 5e-3, 2e-2] {
        for h in [
            Harvester::ConstantCurrent(Amps::from_milli(4.0)),
            Harvester::ConstantPower(Watts::from_milli(9.0)),
        ] {
            let sys = plant(45.0, 1.0, v_high - dv, h);
            assert_kernels_agree(&sys, &load, probe_cfg(10.0));
        }
    }
}

#[test]
fn starting_at_exactly_v_off_agrees() {
    let probe = plant(45.0, 3.0, 2.0, Harvester::Off);
    let v_off = probe.monitor().v_off().get();
    let load = LoadProfile::constant("doomed", Amps::from_milli(10.0), Seconds::from_milli(5.0));
    let sys = plant(45.0, 3.0, v_off, Harvester::Off);
    assert_kernels_agree(&sys, &load, probe_cfg(10.0));
}

#[test]
fn zero_length_segments_agree() {
    // Segments shorter than one step round to zero steps; the planner
    // must skip them identically to the fixed loop's arithmetic.
    let tiny = Seconds::from_micro(1.0); // dt is 10 µs
    let profile = LoadProfile::builder("degenerate")
        .hold(Amps::from_milli(20.0), Seconds::from_milli(3.0))
        .hold(Amps::from_milli(44.0), tiny)
        .hold(Amps::from_milli(5.0), Seconds::from_milli(2.0))
        .hold(Amps::from_milli(33.0), tiny)
        .build();
    let sys = plant(45.0, 2.0, 2.3, Harvester::Off);
    assert_kernels_agree(&sys, &profile, probe_cfg(10.0));

    // A profile that is *only* a zero-length segment still runs one step.
    let only = LoadProfile::constant("only-tiny", Amps::from_milli(15.0), tiny);
    assert_kernels_agree(&sys, &only, probe_cfg(10.0));
}

#[test]
fn sub_step_burst_periods_agree() {
    // Burst period below 2·dt: the square wave aliases against the step
    // grid, exercising the planner's per-step pieces.
    let profile = LoadProfile::builder("alias")
        .burst(
            Amps::from_milli(35.0),
            Amps::from_milli(2.0),
            Seconds::from_micro(15.0),
            0.5,
            Seconds::from_milli(6.0),
        )
        .build();
    let sys = plant(45.0, 2.0, 2.25, Harvester::Off);
    assert_kernels_agree(&sys, &profile, probe_cfg(10.0));
}

// ---- plant battery: every chunk shape the kernel dispatches on ----

fn ma(v: f64) -> Amps {
    Amps::from_milli(v)
}

fn charged(mut sys: PowerSystem, v0: f64) -> PowerSystem {
    sys.set_buffer_voltage(Volts::new(v0));
    sys.force_output_enabled();
    sys
}

/// The two-branch ladder plus slower branches up to `branches` in all,
/// charged to `v0`.
fn bank(branches: usize, harvester: Harvester, v0: f64) -> PowerSystem {
    let mut b = PowerSystem::builder()
        .two_branch_bank()
        .harvester(harvester);
    for k in 2..branches {
        b = b.extra_branch(CapacitorBranch::new(
            Farads::from_milli(10.0 * k as f64),
            Ohms::new(2.0 + k as f64),
            Amps::new(5e-9),
            Volts::ZERO,
        ));
    }
    charged(b.build(), v0)
}

/// No harvest, constant current, the weak solar source and a stronger
/// constant-power one: both chunk charge modes.
fn charge_modes() -> [Harvester; 4] {
    [
        Harvester::Off,
        Harvester::ConstantCurrent(ma(4.0)),
        Harvester::weak_solar(),
        Harvester::ConstantPower(Watts::from_milli(3.0)),
    ]
}

/// The event kernel's work counters for `profile` on `sys`, under the
/// `run_profile` break policy.
fn event_counters(sys: &PowerSystem, profile: &LoadProfile, dt: Seconds) -> KernelCounters {
    let mut sys = sys.clone();
    let mut stepper = EventStepper::new(&mut sys, dt);
    let steps = profile.duration().steps(dt).max(1);
    let _ = stepper.run_profile_steps(profile, steps, Amps::ZERO, BreakOn::MonitorRecharging, None);
    stepper.counters()
}

/// Checks every plant of `branches` branches under every charge mode,
/// from a comfortable and a near-brownout start, and that the event
/// kernel chunked each.
fn assert_banks_agree(branches: usize) {
    let task = LoadProfile::constant("task", ma(20.0), Seconds::from_milli(30.0));
    let multi = LoadProfile::builder("multi")
        .hold(ma(25.0), Seconds::from_milli(20.0))
        .hold(ma(2.0), Seconds::from_milli(20.0))
        .build();
    let cfg = RunConfig {
        settle_timeout: Seconds::from_milli(200.0),
        ..probe_cfg(10.0)
    };
    for h in charge_modes() {
        for v0 in [2.3, 1.9] {
            let sys = bank(branches, h, v0);
            assert_eq!(sys.buffer().branches().len(), branches);
            for profile in [&task, &multi] {
                assert_kernels_agree(&sys, profile, cfg);
                let counters = event_counters(&sys, profile, cfg.dt);
                assert!(
                    counters.chunks > 0,
                    "{branches} branches, {h:?}: {counters:?}"
                );
            }
        }
    }
}

#[test]
fn two_branch_bank_agrees_under_every_charge_mode() {
    assert_banks_agree(2);
}

#[test]
fn three_and_four_branch_banks_agree_under_every_charge_mode() {
    assert_banks_agree(3);
    assert_banks_agree(4);
}

#[test]
fn brownout_and_completing_starts_agree() {
    let heavy = LoadProfile::constant("heavy", ma(50.0), Seconds::from_milli(100.0));
    let mut verdicts = Vec::new();
    for v0 in [1.75, 2.45, 1.8, 2.4] {
        let sys = charged(PowerSystem::capybara_two_branch(), v0);
        assert_kernels_agree(&sys, &heavy, probe_cfg(10.0));
        verdicts.push(sys.clone().run_profile(&heavy, probe_cfg(10.0)).completed());
    }
    assert!(
        verdicts.contains(&true) && verdicts.contains(&false),
        "{verdicts:?}"
    );
}

/// A slow windowed source: 2 ms period at 10 µs steps, so every 30 ms
/// constant piece spans a dozen phase flips. Every flip falls exactly on
/// a grid step, where the gate is decided by the clock's last ulp: the
/// chunks must leave the fixed-step loop's own repeated-sum clock.
fn windowed(phase_ms: f64, duty: f64) -> Harvester {
    Harvester::Windowed {
        i: ma(6.0),
        period: Seconds::from_milli(2.0),
        duty,
        phase: Seconds::from_milli(phase_ms),
    }
}

#[test]
fn windowed_harvester_flipping_inside_const_pieces_agrees() {
    let load = LoadProfile::builder("windowed")
        .hold(ma(20.0), Seconds::from_milli(30.0))
        .hold(ma(3.0), Seconds::from_milli(30.0))
        .build();
    let cfg = probe_cfg(10.0);
    for (k, h) in [windowed(0.0, 0.5), windowed(0.37, 0.25), windowed(1.1, 0.8)]
        .into_iter()
        .enumerate()
    {
        for v0 in [2.35, 1.85] {
            let sys = bank(2, h, v0 + 0.01 * k as f64);
            assert_kernels_agree(&sys, &load, cfg);
            let counters = event_counters(&sys, &load, cfg.dt);
            assert!(counters.chunks > 0, "{h:?}: {counters:?}");
        }
    }
}

#[test]
fn constant_power_ramp_browning_out_mid_ramp_agrees() {
    // A ramp (per-step pieces) under constant-power charging, from start
    // voltages that brown out part-way up the ramp and from ones that
    // finish it.
    let ramp = LoadProfile::builder("ramp")
        .hold(ma(5.0), Seconds::from_milli(5.0))
        .ramp(ma(5.0), ma(60.0), Seconds::from_milli(20.0))
        .hold(ma(1.0), Seconds::from_milli(5.0))
        .build();
    let mut mid_ramp = 0;
    for v0 in [1.75, 1.8, 1.85, 2.4] {
        let sys = bank(2, Harvester::weak_solar(), v0);
        assert_kernels_agree(&sys, &ramp, probe_cfg(10.0));
        let brownout = sys.clone().run_profile(&ramp, probe_cfg(10.0)).brownout;
        mid_ramp += usize::from(brownout.is_some_and(|t| t.get() > 5e-3 && t.get() < 25e-3));
    }
    assert!(mid_ramp > 0, "no start browned out on the ramp");
}

#[test]
fn single_branch_constant_power_plants_agree_through_strides() {
    // The scheduler-trial plants: one branch, constant-power harvest, so
    // their chunks take the closed-form stride.
    let task = LoadProfile::constant("task", ma(8.0), Seconds::from_milli(200.0));
    let burst = LoadProfile::builder("burst")
        .hold(ma(30.0), Seconds::from_milli(20.0))
        .hold(ma(2.0), Seconds::from_milli(150.0))
        .build();
    let cfg = RunConfig {
        settle_timeout: Seconds::from_milli(500.0),
        ..probe_cfg(100.0)
    };
    let mut strided = 0;
    for (i, (c, r, p)) in [
        (15.0, 10.0, 5.0),
        (45.0, 3.3, 3.0),
        (45.0, 3.3, 4.0),
        (30.0, 6.0, 4.5),
    ]
    .into_iter()
    .enumerate()
    {
        let h = Harvester::ConstantPower(Watts::from_milli(p));
        let sys = plant(c, r, 2.1 + 0.1 * i as f64, h);
        let profile = if i % 2 == 0 { &task } else { &burst };
        assert_kernels_agree(&sys, profile, cfg);
        strided += event_counters(&sys, profile, cfg.dt).strided_chunks;
    }
    assert!(strided > 0, "no plant strided");
}

/// The delivered-energy meter is exact on both kernels: a chunk meters
/// `P_out·dt` per delivering step in closed form, the fixed-step loop one
/// step at a time. Checked across the plant battery, load and rebound,
/// within 1e-12 relative; the event run ends without an itemized ledger
/// once it has committed a chunk.
#[test]
fn delivered_energy_matches_fixed_step_across_the_plant_battery() {
    let task = LoadProfile::constant("task", ma(20.0), Seconds::from_milli(30.0));
    let multi = LoadProfile::builder("multi")
        .hold(ma(25.0), Seconds::from_milli(20.0))
        .hold(ma(2.0), Seconds::from_milli(20.0))
        .build();
    let long = LoadProfile::builder("long")
        .hold(ma(30.0), Seconds::from_milli(20.0))
        .hold(ma(2.0), Seconds::from_milli(150.0))
        .build();
    let cfg = RunConfig {
        settle_timeout: Seconds::from_milli(200.0),
        ..probe_cfg(10.0)
    };
    let mut plants = Vec::new();
    for branches in 2..=4 {
        for h in charge_modes() {
            for v0 in [2.3, 1.9] {
                plants.push((bank(branches, h, v0), cfg, [&task, &multi]));
            }
        }
    }
    // The single-branch constant-power plants, whose chunks stride.
    let stride_cfg = RunConfig {
        settle_timeout: Seconds::from_milli(500.0),
        ..probe_cfg(100.0)
    };
    for (i, (c, r, p)) in [(15.0, 10.0, 5.0), (45.0, 3.3, 3.0), (45.0, 3.3, 4.0)]
        .into_iter()
        .enumerate()
    {
        let h = Harvester::ConstantPower(Watts::from_milli(p));
        plants.push((
            plant(c, r, 2.1 + 0.1 * i as f64, h),
            stride_cfg,
            [&task, &long],
        ));
    }
    let mut chunked = 0;
    for (sys, cfg, profiles) in &plants {
        for profile in profiles {
            let mut fixed = sys.clone();
            let mut event = sys.clone();
            let _ = fixed.run_profile_reference(profile, *cfg);
            let out = event.run_profile(profile, *cfg);
            let (f, e) = (fixed.delivered().get(), event.delivered().get());
            assert!(f > 0.0, "'{}' delivered nothing", profile.label());
            let rel = (f - e).abs() / f;
            assert!(
                rel <= 1e-12,
                "delivered on '{}': fixed {f} event {e} ({rel:e} relative)",
                profile.label()
            );
            assert!(fixed.ledger().is_some());
            assert_eq!(out.ledger.is_none(), event.ledger().is_none());
            chunked += usize::from(event.ledger().is_none());
        }
    }
    assert!(chunked > 0, "no event run committed a chunk");
}

#[test]
fn out_of_scope_plants_fall_back_to_fixed_step() {
    // Out of the chunk model's scope, the event kernel must decline rather
    // than approximate: the run is bitwise the fixed-step run.
    let load = LoadProfile::constant("task", ma(10.0), Seconds::from_milli(5.0));
    let cfg = probe_cfg(10.0);
    let fast_window = Harvester::Windowed {
        i: ma(5.0),
        period: Seconds::from_micro(20.0),
        duty: 0.5,
        phase: Seconds::ZERO,
    };
    for sys in [bank(2, fast_window, 2.3), bank(5, Harvester::Off, 2.3)] {
        assert!(!EventStepper::new(&mut sys.clone(), cfg.dt).capable());
        let event = sys.clone().run_profile(&load, cfg);
        let fixed = sys.clone().run_profile_reference(&load, cfg);
        assert_eq!(event, fixed);
    }

    // A traced run takes the fixed-step loop on a covered plant too, load
    // and rebound: bitwise the reference, trace and `v_final` included.
    let sys = bank(2, Harvester::Off, 2.3);
    assert!(EventStepper::new(&mut sys.clone(), cfg.dt).capable());
    let traced = RunConfig {
        record_stride: Some(4),
        settle_timeout: Seconds::from_milli(200.0),
        ..cfg
    };
    let run = sys.clone().run_profile(&load, traced);
    let reference = sys.clone().run_profile_reference(&load, traced);
    assert!(!run.trace.samples().is_empty());
    assert_eq!(run, reference);
}

// ---- idle spans: the open-circuit level / monitor-change break ----

/// The literal loop `EventStepper::run_idle_until` replaces: unloaded
/// steps until the post-step open-circuit voltage reaches `level` or the
/// monitor leaves its starting state. Returns the breaking step's count.
fn reference_idle(
    sys: &mut PowerSystem,
    steps: usize,
    level: Option<Volts>,
    dt: Seconds,
) -> Option<usize> {
    let start = sys.monitor().state();
    for k in 1..=steps {
        let out = sys.step(Amps::ZERO, dt);
        if out.monitor != start || level.is_some_and(|l| sys.v_node() >= l) {
            return Some(k);
        }
    }
    None
}

/// Runs an idle span both ways and checks the break lands on the same
/// step, with the same monitor state and plant voltage (within 1e-9 V).
fn assert_idle_agrees(sys: &PowerSystem, steps: usize, level: Option<Volts>) -> Option<usize> {
    let dt = Seconds::from_micro(100.0);
    let mut fixed_sys = sys.clone();
    let mut event_sys = sys.clone();
    let fixed = reference_idle(&mut fixed_sys, steps, level, dt);
    let event = match EventStepper::new(&mut event_sys, dt).run_idle_until(steps, level) {
        SpanEnd::Completed => None,
        SpanEnd::Broke { steps, .. } => Some(steps),
    };
    assert_eq!(
        fixed, event,
        "idle break step: fixed {fixed:?} event {event:?}"
    );
    assert_eq!(fixed_sys.monitor().state(), event_sys.monitor().state());
    assert!(
        (fixed_sys.v_node() - event_sys.v_node()).abs().get() < 1e-9,
        "plant state diverged: fixed {} event {}",
        fixed_sys.v_node(),
        event_sys.v_node()
    );
    fixed
}

/// Constant current, constant power, and a window whose flips fall
/// between grid steps (a flip exactly on a step is decided by the last
/// ulp of the summed clock, which chunked and literal stepping round
/// differently).
fn charging_harvesters() -> [Harvester; 3] {
    [
        Harvester::ConstantCurrent(Amps::from_milli(3.0)),
        Harvester::ConstantPower(Watts::from_milli(5.0)),
        Harvester::Windowed {
            i: Amps::from_milli(4.0),
            period: Seconds::from_milli(50.37),
            duty: 0.5,
            phase: Seconds::from_micro(13.0),
        },
    ]
}

#[test]
fn idle_level_crossing_mid_span_agrees() {
    for h in charging_harvesters() {
        let sys = plant(15.0, 10.0, 2.2, h);
        let at = assert_idle_agrees(&sys, 200_000, Some(Volts::new(2.25)));
        assert!(at.is_some_and(|k| k > 100), "{h:?}: level never reached");
    }
}

#[test]
fn idle_level_inside_guard_band_at_span_start() {
    // Levels from sub-µV to a few mV above the starting open-circuit
    // voltage: inside the level band, inside the threshold guard band,
    // and just outside both.
    for h in charging_harvesters() {
        let sys = plant(45.0, 3.3, 2.3, h);
        let v_oc = sys.v_node().get();
        for dv in [2e-7, 9e-7, 5e-6, 4e-4, 9e-4, 1.5e-3, 4e-3] {
            let at = assert_idle_agrees(&sys, 100_000, Some(Volts::new(v_oc + dv)));
            assert!(at.is_some(), "{h:?} +{dv}: level never reached");
        }
    }
}

#[test]
fn idle_constant_power_recharge_to_v_high_agrees() {
    // The Figure 12 periodic-sensing plant (15 mF, 10 Ω, 5 mW) recharging
    // from just above V_off to V_high: thousands of steps of single-branch
    // constant-power chunks, which the kernel advances in closed form, and
    // the break must still land on the literal loop's step.
    let h = Harvester::ConstantPower(Watts::from_milli(5.0));
    let probe = plant(15.0, 10.0, 2.0, h);
    let (v_off, v_high) = (probe.monitor().v_off(), probe.monitor().v_high());
    let sys = plant(15.0, 10.0, v_off.get() + 0.005, h);
    let at = assert_idle_agrees(&sys, 1_000_000, Some(v_high));
    assert!(at.is_some_and(|k| k > 10_000), "V_high not reached: {at:?}");

    let mut strided = sys.clone();
    let mut stepper = EventStepper::new(&mut strided, Seconds::from_micro(100.0));
    let _ = stepper.run_idle_until(1_000_000, Some(v_high));
    let counters = stepper.counters();
    assert!(
        counters.strided_chunks * 2 > counters.chunks,
        "most recharge chunks should stride: {counters:?}"
    );
}

#[test]
fn idle_reenables_at_v_high_after_brownout() {
    // Brown the plant out, then idle with no reachable level: the span
    // must end on the step the monitor re-enables at V_high.
    for h in [
        Harvester::ConstantCurrent(Amps::from_milli(20.0)),
        Harvester::ConstantPower(Watts::from_milli(40.0)),
    ] {
        let mut sys = plant(15.0, 3.3, 1.62, h);
        let dt = Seconds::from_micro(100.0);
        while sys.monitor().output_enabled() {
            let _ = sys.step(Amps::from_milli(60.0), dt);
        }
        assert_eq!(sys.monitor().state(), MonitorState::Recharging);
        let at = assert_idle_agrees(&sys, 2_000_000, None);
        assert!(at.is_some(), "{h:?}: never re-enabled");
    }
}

#[test]
fn idle_on_incapable_windowed_plant_agrees() {
    // A window period under 4·dt puts the plant out of the chunk model's
    // scope: every step is literal, and the break must still agree.
    let h = Harvester::Windowed {
        i: Amps::from_milli(5.0),
        period: Seconds::from_micro(300.0),
        duty: 0.5,
        phase: Seconds::ZERO,
    };
    let sys = plant(15.0, 3.3, 2.3, h);
    let dt = Seconds::from_micro(100.0);
    assert!(!EventStepper::new(&mut sys.clone(), dt).capable());
    let at = assert_idle_agrees(&sys, 50_000, Some(Volts::new(2.302)));
    assert!(at.is_some());
}

#[test]
fn idle_level_already_reached_breaks_after_one_step() {
    for h in [
        Harvester::Off,
        Harvester::ConstantPower(Watts::from_milli(5.0)),
    ] {
        let sys = plant(45.0, 3.3, 2.3, h);
        let level = Volts::new(sys.v_node().get() - 1e-3);
        assert_eq!(assert_idle_agrees(&sys, 1_000, Some(level)), Some(1));
    }
}

#[test]
fn idle_without_reachable_level_runs_to_completion() {
    let sys = plant(45.0, 3.3, 2.3, Harvester::Off);
    assert_eq!(
        assert_idle_agrees(&sys, 30_000, Some(Volts::new(2.4))),
        None
    );
}
