//! Determinism contract of the sweep executor: `results/*.json` must be
//! byte-identical no matter how many worker threads ran the sweep.
//!
//! Figure 10 exercises the riskiest path — the ground-truth result cache
//! is shared across cells, so the test clears it between runs to prove
//! the rows do not depend on cache warm-up order either. Figure 11 runs
//! its predictions and then its dispatch trials as two sweeps of cells.

use culpeo_harness::exec::Sweep;
use culpeo_harness::ground_truth::clear_truth_cache;
use culpeo_harness::{fig10, fig11};
use culpeo_loadgen::synthetic::fig10_loads;

/// A short load subset keeps the test fast while still spanning multiple
/// cells per worker.
fn short_loads() -> Vec<culpeo_loadgen::LoadProfile> {
    fig10_loads().into_iter().take(4).collect()
}

#[test]
fn fig10_rows_are_identical_serial_vs_four_threads() {
    let loads = short_loads();

    clear_truth_cache();
    let (serial, serial_tele) = fig10::run(Sweep::serial(), &loads);

    clear_truth_cache();
    let (parallel, parallel_tele) = fig10::run(Sweep::with_threads(4), &loads);

    assert_eq!(serial_tele.threads, 1);
    assert_eq!(parallel_tele.threads, 4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        // Byte-identical through the same serializer the result writer
        // uses — bitwise float equality, same field order, same rows.
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }
}

#[test]
fn fig10_rows_do_not_depend_on_a_warm_verdict_cache() {
    let loads = short_loads();

    clear_truth_cache();
    let (cold, _) = fig10::run(Sweep::serial(), &loads);
    // Second run reuses the now-warm cache; verdicts must be bit-equal.
    let (warm, _) = fig10::run(Sweep::serial(), &loads);

    assert_eq!(cold, warm);
}

#[test]
fn fig11_rows_are_identical_serial_vs_four_threads() {
    let (serial, serial_tele) = fig11::run(Sweep::serial());
    let (parallel, parallel_tele) = fig11::run(Sweep::with_threads(4));

    assert_eq!(serial_tele.threads, 1);
    assert_eq!(parallel_tele.threads, 4);
    assert_eq!(serial.len(), 3 * 4);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap()
    );
}
