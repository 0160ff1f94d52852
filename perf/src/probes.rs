//! Per-layer metrics timed by direct calls into each crate's public
//! functions on fixed inputs. The traced run of every workload takes
//! them, so each layer's cost is on record whether or not the workload's
//! own path crosses it.

use std::path::Path;
use std::time::Instant;

use culpeo_harness::ground_truth::completes_from;
use culpeo_harness::reference_plant;
use culpeo_loadgen::synthetic::fig10_loads;
use culpeo_loadgen::LoadProfile;
use culpeo_powersim::{Lanes, PowerSystem, RunConfig};
use culpeo_sched::apps;
use culpeo_served::http;
use culpeo_store::{Store, StoreConfig};
use culpeo_units::{Amps, Seconds, Volts};

use crate::serve::{self, Kind, Mix};
use crate::stats;
use crate::Metric;

/// Median over `reps` timed calls of `f`, in nanoseconds.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        v.push(t0.elapsed().as_nanos() as f64);
    }
    stats::median(&v)
}

/// `PowerSystem::step` on the three app plants, idle and at 5 mA:
/// median ns per step over the six (plant, load) runs.
fn step_ns() -> f64 {
    const STEPS: u32 = 20_000;
    let dt = Seconds::from_micro(100.0);
    let mut per_step = Vec::new();
    for app in [
        apps::periodic_sensing(),
        apps::responsive_reporting(),
        apps::noise_monitoring(),
    ] {
        for i in [Amps::ZERO, Amps::from_milli(5.0)] {
            let mut sys = PowerSystem::builder()
                .bank(app.capacitance, app.esr)
                .harvester(app.harvester)
                .build();
            let t0 = Instant::now();
            for _ in 0..STEPS {
                std::hint::black_box(sys.step(std::hint::black_box(i), dt));
            }
            per_step.push(t0.elapsed().as_nanos() as f64 / f64::from(STEPS));
        }
    }
    stats::median(&per_step)
}

/// Scalar and lane-batched bisection probes of the 18 Figure 10 loads
/// from 2.0 V: µs per probe for each.
fn probe_us(loads: &[LoadProfile]) -> (f64, f64) {
    let v = Volts::new(2.0);
    let scalar = stats::median(
        &loads
            .iter()
            .map(|l| time_ns(3, || completes_from(&reference_plant, l, v)) / 1e3)
            .collect::<Vec<_>>(),
    );
    let lanes = time_ns(3, || {
        let mut systems: Vec<PowerSystem> = loads
            .iter()
            .map(|_| {
                let mut s = reference_plant();
                s.set_buffer_voltage(v);
                s.force_output_enabled();
                s
            })
            .collect();
        let profiles: Vec<&LoadProfile> = loads.iter().collect();
        let cfgs: Vec<RunConfig> = loads
            .iter()
            .map(|l| RunConfig::probe(l.duration()))
            .collect();
        Lanes::<8>::run(&mut systems, &profiles, &cfgs)
    }) / 1e3
        / loads.len() as f64;
    (scalar, lanes)
}

/// Median handler time of `reqs`, µs.
fn handler_us(reqs: &[serve::Req]) -> f64 {
    stats::median(
        &reqs
            .iter()
            .map(|r| time_ns(1, || serve::direct_answer(r)) / 1e3)
            .collect::<Vec<_>>(),
    )
}

/// Runs every direct-call probe. `work` holds the probe stores.
#[must_use]
pub fn run(work: &Path, seed: u64) -> Vec<Metric> {
    let loads = fig10_loads();
    let (probe, lanes) = probe_us(&loads);

    let mut mix = Mix::new(seed, 1 << 40);
    let reqs: Vec<serve::Req> = (0..256).map(|_| mix.next_req()).collect();
    let wire: Vec<Vec<u8>> = reqs.iter().map(serve::Req::bytes).collect();
    let parse_ns = stats::median(
        &wire
            .iter()
            .map(|b| {
                time_ns(5, || {
                    http::try_parse_request(b).expect("well-formed request")
                })
            })
            .collect::<Vec<_>>(),
    );
    let response_ns = stats::median(
        &reqs
            .iter()
            .map(|r| {
                time_ns(5, || {
                    http::response_bytes(200, "application/json", None, r.body.as_bytes(), false)
                })
            })
            .collect::<Vec<_>>(),
    );
    let of =
        |mix: &mut Mix, kind: Kind, n: usize| (0..n).map(|_| mix.make(kind)).collect::<Vec<_>>();
    let cold = of(&mut mix, Kind::VsafeCold, 32);
    let verify = of(&mut mix, Kind::Verify, 8);
    let wcec = of(&mut mix, Kind::Wcec, 8);
    let lint = of(&mut mix, Kind::Lint, 8);

    // Store: fsync-acked batch appends, then recovery of a pre-filled log.
    let append_dir = work.join(format!("probe-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&append_dir);
    let append_us = {
        let (store, _) =
            Store::open(&append_dir, StoreConfig::default()).expect("open the probe store");
        let batch = [(2.5, 2.2, 2.3); 8];
        let mut device = 0;
        time_ns(32, || {
            device += 1;
            store
                .append_batch(device % serve::DEVICES, &batch)
                .expect("append")
        }) / 1e3
    };
    let _ = std::fs::remove_dir_all(&append_dir);
    let recover_dir = work.join(format!("probe-recover-{}", std::process::id()));
    serve::prefill(&recover_dir, seed, serve::PREFILL_PER_DEVICE);
    let recover_ms = time_ns(3, || culpeo_store::recover(&recover_dir).expect("recover")) / 1e6;
    let _ = std::fs::remove_dir_all(&recover_dir);
    let records = (serve::PREFILL_PER_DEVICE * serve::DEVICES) as f64;

    vec![
        Metric::new("powersim.step_ns", step_ns(), "ns"),
        Metric::new("powersim.probe_us", probe, "us"),
        Metric::new("powersim.lanes_probe_us", lanes, "us"),
        Metric::new("served.parse_ns", parse_ns, "ns"),
        Metric::new("served.response_ns", response_ns, "ns"),
        Metric::new("served.vsafe_cold_us", handler_us(&cold), "us"),
        Metric::new("verify.us", handler_us(&verify), "us"),
        Metric::new("wcec.us", handler_us(&wcec), "us"),
        Metric::new("analyze.lint_us", handler_us(&lint), "us"),
        Metric::new("store.append_batch_us", append_us, "us"),
        Metric::new("store.recover_ms", recover_ms, "ms"),
        Metric::new(
            "store.recover_rec_per_s",
            records / (recover_ms / 1e3),
            "1/s",
        ),
    ]
}
