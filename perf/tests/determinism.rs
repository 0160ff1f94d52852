//! The outcome digests do not depend on the thread count: one worker and
//! every core give bitwise the same trial counts and `V_safe` values.

use culpeo_exec::Sweep;
use culpeo_perf::trace::Tracer;
use culpeo_perf::{facts, sched, vsafe};
use culpeo_units::Seconds;

#[test]
fn sched_digest_is_thread_count_independent() {
    // The full 54-cell grid, shortened to 10 simulated seconds per trial.
    let grid = sched::grid(3, Seconds::new(10.0));
    let off = Tracer::off();
    let digest = |sweep| {
        let pass = sched::run_pass(&grid, sweep, &off, 1);
        let results: Vec<_> = pass.trials.into_iter().map(|(r, _)| r).collect();
        sched::digest(&results)
    };
    assert_eq!(
        digest(Sweep::serial()),
        digest(Sweep::with_threads(facts::nproc().max(2)))
    );
}

#[test]
fn vsafe_digest_is_thread_count_independent() {
    let study = vsafe::loads(3, 10);
    let off = Tracer::off();
    let models = vsafe::characterize(&off);
    let serial = vsafe::run_pass(&study, &models, Sweep::serial(), &off, 1);
    let parallel = vsafe::run_pass(
        &study,
        &models,
        Sweep::with_threads(facts::nproc().max(2)),
        &off,
        2,
    );
    assert_eq!(
        vsafe::digest(&serial.results),
        vsafe::digest(&parallel.results)
    );
    assert_eq!(
        serial.probes, parallel.probes,
        "both passes start from a cold verdict cache"
    );
}

#[test]
fn seeds_change_inputs_but_not_their_shape() {
    let a = vsafe::loads(1, 30);
    let b = vsafe::loads(2, 30);
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x.plant == y.plant));
    assert!(a
        .iter()
        .zip(&b)
        .skip(18)
        .any(|(x, y)| x.load.label() != y.load.label()));
    assert_eq!(sched::grid(1, Seconds::new(1.0)).cells.len(), 54);
}
