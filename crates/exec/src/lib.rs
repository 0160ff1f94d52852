//! The execution layer: a deterministic parallel sweep executor plus the
//! wall-clock telemetry every experiment driver embeds in its results.
//!
//! Every figure and ablation driver is, at heart, a grid of independent
//! cells — (load, system, trial, seed) tuples — each of which builds a
//! fresh simulated plant and grinds through `PowerSystem::step`. The cells
//! share no mutable state, so they parallelise perfectly; what must *not*
//! change with the thread count is the output. [`Sweep::map`] therefore
//! hands cells to a scoped worker pool through an atomic cursor and writes
//! each result back into its input slot, so the collected vector is always
//! in input order and `results/*.json` stays byte-identical whether the
//! sweep ran on one thread or sixteen (floating-point work per cell is an
//! identical instruction sequence either way; only wall-clock changes).
//!
//! Thread count resolution, in priority order: an explicit
//! [`Sweep::with_threads`], the `CULPEO_THREADS` environment variable, the
//! machine's available parallelism. DESIGN.md §8 documents the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod shard;
pub mod shim;
mod telemetry;

pub use telemetry::{Phase, PhaseClock, Telemetry};

use std::num::NonZeroUsize;
use std::sync::atomic::AtomicUsize;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "CULPEO_THREADS";

/// A parallel executor for grids of independent cells.
///
/// Construction picks the worker count; [`Sweep::map`] runs a closure over
/// a slice of cells on that many scoped threads, returning the results in
/// input order. A `Sweep` holds no pool state — threads are scoped to each
/// `map` call — so it is `Copy` and free to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    threads: usize,
}

impl Sweep {
    /// An executor with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded executor: `map` degenerates to a plain serial
    /// loop on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// The executor the drivers use: `CULPEO_THREADS` if set (and a
    /// positive integer), otherwise the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let threads = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        Self::with_threads(threads)
    }

    /// The worker count this executor fans out to.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every cell, returning results in input order.
    ///
    /// `f` receives the cell's index and a reference to the cell. Cells
    /// are claimed through an atomic cursor (dynamic scheduling — cheap
    /// cells don't serialise behind expensive ones), but every result is
    /// written back to its input slot, so the output order — and therefore
    /// any serialisation of it — is independent of the thread count.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f` (after all workers
    /// stop claiming new cells).
    pub fn map<T, R, F>(&self, cells: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(cells.len()).max(1);
        if workers == 1 {
            return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(cells.len());
        slots.resize_with(cells.len(), || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            // Hand each worker a disjoint slice of output slots? No — the
            // cursor hands out arbitrary indices. Instead each worker
            // returns its (index, result) pairs and the parent scatters
            // them; scattering is O(cells) and order-insensitive.
            for _ in 0..workers {
                let cursor = &cursor;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(idx) = protocol::claim_next(cursor, cells.len()) {
                        local.push((idx, f(idx, &cells[idx])));
                    }
                    local
                }));
            }
            let mut panic = None;
            for handle in handles {
                match handle.join() {
                    Ok(pairs) => protocol::scatter(&mut slots, pairs),
                    Err(payload) => panic = panic.or(Some(payload)),
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });

        slots
            .into_iter()
            .map(|s| s.expect("every cell produced a result"))
            .collect()
    }

    /// [`Sweep::map`] with chunked claiming: workers claim contiguous runs
    /// of up to `chunk` cells, and `f` maps a whole run at once.
    ///
    /// The atomic cursor is touched once per run instead of once per
    /// cell — relevant when cells are cheap and plentiful (a batch
    /// endpoint linting hundreds of items) — and the callee sees each run
    /// as one contiguous slice.
    ///
    /// `f` receives the run's starting index and the run's cells, and must
    /// return exactly one result per cell, in cell order. Results land in
    /// input order regardless of thread count, same as [`Sweep::map`].
    ///
    /// # Panics
    ///
    /// Panics when `f` returns a different number of results than cells it
    /// was given; propagates the first panic raised inside `f`.
    pub fn map_chunks<T, R, F>(&self, cells: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> Vec<R> + Sync,
    {
        let chunk = chunk.max(1);
        let starts: Vec<usize> = (0..cells.len()).step_by(chunk).collect();
        let runs = self.map(&starts, |_, &start| {
            let run = &cells[start..(start + chunk).min(cells.len())];
            let out = f(start, run);
            assert_eq!(
                out.len(),
                run.len(),
                "map_chunks callee must return one result per cell"
            );
            out
        });
        runs.into_iter().flatten().collect()
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A two-axis cell grid in row-major order.
///
/// Sweeps like Figure 10's (load × system) or Figure 12's
/// (application × policy × trial) are cartesian products whose *output
/// order* is part of the determinism contract. `CellGrid` materialises the
/// index pairs once, row-major, so drivers fan the product out through
/// [`Sweep::map`] without hand-rolling nested loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellGrid {
    rows: usize,
    cols: usize,
}

impl CellGrid {
    /// A grid of `rows × cols` cells.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// Total cell count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when either axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(row, col)` index pairs in row-major order.
    #[must_use]
    pub fn cells(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.len());
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push((r, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn map_preserves_input_order() {
        let cells: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = cells.iter().map(|c| c * c).collect();
        for threads in [1, 2, 4, 7] {
            let got = Sweep::with_threads(threads).map(&cells, |_, &c| c * c);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_passes_matching_indices() {
        let cells: Vec<usize> = (0..50).collect();
        let got = Sweep::with_threads(4).map(&cells, |i, &c| (i, c));
        for (i, &(idx, cell)) in got.iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, cell);
        }
    }

    #[test]
    fn map_actually_fans_out() {
        let seen = Mutex::new(std::collections::HashSet::new());
        let cells: Vec<u32> = (0..64).collect();
        Sweep::with_threads(4).map(&cells, |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        // With 64 sleeping cells and 4 workers, more than one worker must
        // have participated.
        assert!(seen.lock().unwrap().len() > 1);
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Sweep::with_threads(8).map(&empty, |_, &c| c).is_empty());
        assert_eq!(Sweep::with_threads(8).map(&[5u32], |_, &c| c), vec![5]);
    }

    #[test]
    #[should_panic(expected = "cell 13")]
    fn map_propagates_worker_panics() {
        let cells: Vec<usize> = (0..32).collect();
        Sweep::with_threads(4).map(&cells, |i, _| {
            assert!(i != 13, "cell 13");
        });
    }

    #[test]
    fn map_chunks_matches_map_across_widths_and_threads() {
        let cells: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = cells.iter().map(|c| c * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            for chunk in [1, 3, 8, 97, 200] {
                let got = Sweep::with_threads(threads).map_chunks(&cells, chunk, |start, run| {
                    run.iter()
                        .enumerate()
                        .map(|(k, &c)| {
                            assert_eq!(cells[start + k], c, "run slice misaligned");
                            c * 3 + 1
                        })
                        .collect()
                });
                assert_eq!(got, expected, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn map_chunks_handles_empty_input() {
        let empty: Vec<u32> = Vec::new();
        let got = Sweep::with_threads(4).map_chunks(&empty, 8, |_, run| run.to_vec());
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "one result per cell")]
    fn map_chunks_rejects_wrong_arity() {
        let cells: Vec<u32> = (0..16).collect();
        let _ = Sweep::serial().map_chunks(&cells, 4, |_, _| vec![0u32]);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Sweep::with_threads(0).threads(), 1);
        assert_eq!(Sweep::serial().threads(), 1);
    }

    #[test]
    fn grid_is_row_major() {
        let g = CellGrid::new(2, 3);
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
        assert_eq!(
            g.cells(),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
        assert!(CellGrid::new(0, 3).is_empty());
    }
}
