//! Determinism contract of the sweep executor: `results/*.json` must be
//! byte-identical no matter how many worker threads ran the sweep.
//!
//! Figures 6 and 10 and the aging ablation run each load's ground-truth
//! search inside its own sweep cell, through `harness::study`, so no
//! cell's truth depends on another's. Figure 11 runs its predictions and
//! then its dispatch trials as two sweeps of cells.

use culpeo_harness::exec::Sweep;
use culpeo_harness::{aging, fig06, fig10, fig11};
use culpeo_loadgen::synthetic::fig10_loads;
use serde::Serialize;

/// Serializes `rows` through the same serializer the result writer uses:
/// byte equality is bitwise float equality, same field order, same rows.
fn json<T: Serialize>(rows: &[T]) -> String {
    serde_json::to_string(rows).unwrap()
}

#[test]
fn fig06_rows_are_identical_serial_vs_four_threads() {
    let (serial, serial_tele) = fig06::run(Sweep::serial());
    let (parallel, parallel_tele) = fig06::run(Sweep::with_threads(4));

    assert_eq!(serial_tele.threads, 1);
    assert_eq!(parallel_tele.threads, 4);
    assert_eq!(serial.len(), 12 * 3);
    assert_eq!(json(&serial), json(&parallel));
}

#[test]
fn fig10_rows_are_identical_serial_vs_four_threads() {
    // A short load subset keeps the test fast while still spanning
    // multiple cells per worker.
    let loads: Vec<_> = fig10_loads().into_iter().take(4).collect();
    let (serial, serial_tele) = fig10::run(Sweep::serial(), &loads);
    let (parallel, parallel_tele) = fig10::run(Sweep::with_threads(4), &loads);

    assert_eq!(serial_tele.threads, 1);
    assert_eq!(parallel_tele.threads, 4);
    assert_eq!(serial.len(), 4 * 4);
    assert_eq!(json(&serial), json(&parallel));
}

#[test]
fn aging_rows_are_identical_serial_vs_four_threads() {
    let (serial, serial_tele) = aging::run(Sweep::serial());
    let (parallel, parallel_tele) = aging::run(Sweep::with_threads(4));

    assert_eq!(serial_tele.threads, 1);
    assert_eq!(parallel_tele.threads, 4);
    assert_eq!(serial.len(), 6);
    assert_eq!(json(&serial), json(&parallel));
}

#[test]
fn fig11_rows_are_identical_serial_vs_four_threads() {
    let (serial, serial_tele) = fig11::run(Sweep::serial());
    let (parallel, parallel_tele) = fig11::run(Sweep::with_threads(4));

    assert_eq!(serial_tele.threads, 1);
    assert_eq!(parallel_tele.threads, 4);
    assert_eq!(serial.len(), 3 * 4);
    assert_eq!(json(&serial), json(&parallel));
}
