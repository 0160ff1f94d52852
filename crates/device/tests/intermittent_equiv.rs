//! The intermittent recharge wait ≡ the literal step loop it replaced,
//! from the public API.
//!
//! `wait_until_ready` advances the plant in idle spans on the event kernel
//! that end on the monitor's edge or the gate's level. Its contract is that
//! this changes nothing observable: `run_to_completion_with` returns the
//! `IntermittentStats` (and leaves the clock) bitwise where checking the
//! policy before every 100 µs step does. The reference below is that step
//! loop, kept here as the oracle.

use culpeo_device::intermittent::{run_to_completion_with, DispatchPolicy, IntermittentStats};
use culpeo_loadgen::LoadProfile;
use culpeo_powersim::{Harvester, PowerSystem, RunConfig};
use culpeo_units::{Amps, Seconds, Volts};

/// The literal recharge wait: the readiness check before each of at most
/// `max_wait / dt` unloaded steps.
fn literal_wait(
    sys: &mut PowerSystem,
    policy: DispatchPolicy,
    dt: Seconds,
    max_wait: Seconds,
) -> bool {
    for _ in 0..max_wait.steps(dt) {
        let enabled = sys.monitor().output_enabled();
        let ready = match policy {
            DispatchPolicy::Opportunistic => enabled,
            DispatchPolicy::VsafeGated(v_safe) => enabled && sys.v_node() >= v_safe,
        };
        if ready {
            return true;
        }
        sys.step(Amps::ZERO, dt);
    }
    false
}

/// `run_to_completion_with` on the literal wait.
fn literal_run(
    sys: &mut PowerSystem,
    task: &LoadProfile,
    policy: DispatchPolicy,
    max_attempts: u32,
    max_wait: Seconds,
) -> IntermittentStats {
    let t0 = sys.time();
    let dt = Seconds::from_micro(100.0);
    let (mut attempts, mut failures) = (0, 0);
    let mut completed = false;
    while attempts < max_attempts && literal_wait(sys, policy, dt, max_wait) {
        attempts += 1;
        if sys.run_profile(task, RunConfig::coarse()).completed() {
            completed = true;
            break;
        }
        failures += 1;
    }
    IntermittentStats {
        attempts,
        failures,
        elapsed: Seconds::new((sys.time() - t0).get()),
        completed,
    }
}

/// A plant at 1.7 V with its output forced on, charged by `h`.
fn low(h: Harvester) -> PowerSystem {
    let mut sys = PowerSystem::builder().harvester(h).build();
    sys.set_buffer_voltage(Volts::new(1.7));
    sys.force_output_enabled();
    sys
}

#[test]
fn recharge_wait_matches_the_literal_loop() {
    let gated = DispatchPolicy::VsafeGated(Volts::new(2.2));
    let five_ma = Harvester::ConstantCurrent(Amps::from_milli(5.0));
    // The unit tests' plants: full, low and opportunistic, low and gated,
    // and low with no harvest (one failure, then the wait times out).
    let mut cases = vec![
        (
            PowerSystem::builder().harvester(five_ma).build(),
            DispatchPolicy::Opportunistic,
        ),
        (low(five_ma), DispatchPolicy::Opportunistic),
        (low(five_ma), gated),
        (low(Harvester::Off), DispatchPolicy::Opportunistic),
    ];
    // The chaos battery's harvester dropout: square-wave sources inside
    // its envelope (3–8 mA, 1–3 s period, duty 0.3–0.7), under both
    // policies.
    for h in [
        Harvester::Windowed {
            i: Amps::from_milli(5.0),
            period: Seconds::new(2.0),
            duty: 0.5,
            phase: Seconds::ZERO,
        },
        Harvester::Windowed {
            i: Amps::from_milli(3.4),
            period: Seconds::new(1.3),
            duty: 0.35,
            phase: Seconds::new(0.9),
        },
    ] {
        cases.push((low(h), DispatchPolicy::Opportunistic));
        cases.push((low(h), gated));
    }
    let task = LoadProfile::constant("lora", Amps::from_milli(50.0), Seconds::from_milli(100.0));
    let max_wait = Seconds::new(20.0);
    let (mut failed, mut gave_up) = (0, 0);
    for (k, (sys, policy)) in cases.into_iter().enumerate() {
        let (mut literal, mut event) = (sys.clone(), sys);
        let want = literal_run(&mut literal, &task, policy, 5, max_wait);
        let got = run_to_completion_with(&mut event, &task, policy, 5, max_wait);
        assert_eq!(got, want, "case {k}");
        assert_eq!(got.elapsed.get().to_bits(), want.elapsed.get().to_bits());
        assert_eq!(event.time().get().to_bits(), literal.time().get().to_bits());
        failed += want.failures;
        gave_up += u32::from(!want.completed);
    }
    assert!(failed > 0 && gave_up > 0, "retries and time-outs both ran");
}
