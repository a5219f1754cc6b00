//! Deterministic data parallelism on scoped threads.
//!
//! The workspace has no external thread-pool dependency, so this crate
//! provides the few fork-join primitives the hot kernels need, built on
//! [`std::thread::scope`]. Design rules that keep results **bit-identical
//! across thread counts**:
//!
//! - Work is only split across *independent output partitions* (rows of a
//!   matrix, items of a slice). Every output element is computed by
//!   exactly one worker with the same inner arithmetic order as the
//!   serial code, so floating-point results cannot change.
//! - Reductions that would reassociate floating-point additions are never
//!   parallelized here.
//! - Nested parallel regions run serially: a worker thread that calls
//!   back into this crate executes inline instead of spawning
//!   grandchildren, which bounds the total thread count by the budget.
//!
//! The global thread budget defaults to the machine's available
//! parallelism and can be pinned with the `FIS_THREADS` environment
//! variable (`FIS_THREADS=1` forces fully serial execution) or
//! programmatically with [`set_thread_budget`]. [`with_thread_budget`]
//! overrides it for one caller's regions only, so concurrent callers
//! with different budgets never wait on each other.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static BUDGET_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static DEFAULT_BUDGET: OnceLock<usize> = OnceLock::new();

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The budget set by an enclosing [`with_thread_budget`] (`0`: none).
    static SCOPED_BUDGET: Cell<usize> = const { Cell::new(0) };
}

fn default_budget() -> usize {
    *DEFAULT_BUDGET.get_or_init(|| {
        if let Ok(v) = std::env::var("FIS_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The current thread budget (>= 1): the calling thread's
/// [`with_thread_budget`] value if one is in effect, else the
/// process-wide one.
pub fn thread_budget() -> usize {
    match SCOPED_BUDGET.with(Cell::get) {
        0 => match BUDGET_OVERRIDE.load(Ordering::Relaxed) {
            0 => default_budget(),
            n => n,
        },
        n => n,
    }
}

/// Runs `f` with the calling thread's budget set to `threads` (`0`
/// keeps the current budget), restoring it afterwards, even on panic.
///
/// Only regions the calling thread opens see the budget; other threads
/// keep theirs. Workers need nothing, because nested regions run inline.
pub fn with_thread_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_BUDGET.with(|b| b.set(self.0));
        }
    }
    if threads == 0 {
        return f();
    }
    let _restore = Restore(SCOPED_BUDGET.with(|b| b.replace(threads)));
    f()
}

/// Overrides the thread budget process-wide; `0` restores the default
/// (`FIS_THREADS` or the machine's available parallelism).
pub fn set_thread_budget(threads: usize) {
    BUDGET_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Whether the calling thread is already inside a parallel region (in
/// which case further parallel calls run inline).
pub fn in_parallel_region() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Number of worker threads a region over `items` work units would use.
fn workers_for(items: usize, max_threads: usize) -> usize {
    if in_parallel_region() {
        return 1;
    }
    thread_budget().min(max_threads.max(1)).min(items).max(1)
}

/// Splits `0..len` into `parts` contiguous ranges of near-equal size.
///
/// Deterministic: chunk boundaries depend only on `len` and `parts`.
pub fn partition(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Runs `f(start_index, chunk)` over disjoint chunks of `out`,
/// in parallel when the budget and chunk count allow.
///
/// Each element of `out` is written by exactly one worker, so results
/// are identical to the serial order for any thread count.
pub fn par_chunks_mut<T: Send, F>(out: &mut [T], min_items_per_thread: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    let max_threads = len / min_items_per_thread.max(1);
    let workers = workers_for(len, max_threads);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let ranges = partition(len, workers);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut offset = 0;
        for range in ranges {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let start = offset;
            offset += range.len();
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                f(start, head);
            });
        }
    });
}

/// Runs `f(first_row_index, rows_chunk)` over row-aligned chunks of a
/// flat row-major buffer with `cols` elements per row.
///
/// Chunk boundaries always fall on row boundaries, and every row is
/// written by exactly one worker.
pub fn par_row_chunks_mut<T: Send, F>(data: &mut [T], cols: usize, min_rows_per_thread: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    if cols == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0, "buffer is not row-aligned");
    let rows = data.len() / cols;
    let max_threads = rows / min_rows_per_thread.max(1);
    let workers = workers_for(rows, max_threads);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let ranges = partition(rows, workers);
    std::thread::scope(|scope| {
        let mut rest = data;
        for range in ranges {
            let (head, tail) = rest.split_at_mut(range.len() * cols);
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                f(range.start, head);
            });
        }
    });
}

/// Maps `f` over `items` into a `Vec`, preserving order; parallel when
/// the budget allows and `items` is large enough.
pub fn par_map<I, O, F>(items: &[I], min_items_per_thread: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let len = items.len();
    let max_threads = len / min_items_per_thread.max(1);
    let workers = workers_for(len, max_threads);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let ranges = partition(len, workers);
    let mut out: Vec<Option<O>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    std::thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        for range in ranges {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (slot, i) in head.iter_mut().zip(range) {
                    *slot = Some(f(i, &items[i]));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("worker filled slot"))
        .collect()
}

/// Runs `f(index)` for every index in `0..n` across the thread budget.
///
/// Useful when the output is interior-mutable or written through
/// synchronization the caller controls; prefer [`par_chunks_mut`] /
/// [`par_map`] when possible.
pub fn par_for_each_index<F>(n: usize, min_items_per_thread: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let max_threads = n / min_items_per_thread.max(1);
    let workers = workers_for(n, max_threads);
    if workers <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    std::thread::scope(|scope| {
        for range in partition(n, workers) {
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for i in range {
                    f(i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly() {
        for len in [0usize, 1, 7, 64, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = partition(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn par_map_matches_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let parallel = par_map(&items, 1, |_, x| x * x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_chunks_mut_writes_every_slot() {
        let mut out = vec![0usize; 777];
        par_chunks_mut(&mut out, 1, |start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn nested_regions_run_inline() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, 1, |_, &x| {
            // Nested call must not deadlock or spawn grandchildren.
            // (No assertion on the global budget here: sibling tests
            // mutate it concurrently.)
            let inner = par_map(&[1usize, 2, 3], 1, |_, &y| y * x);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out[2], 2 * (1 + 2 + 3));
    }

    #[test]
    fn budget_override_round_trips() {
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        set_thread_budget(0);
        assert!(thread_budget() >= 1);
    }

    #[test]
    fn scoped_budget_is_per_thread_and_restored() {
        // 1000 is a budget no sibling test sets on the global.
        with_thread_budget(1000, || {
            assert_eq!(thread_budget(), 1000);
            with_thread_budget(0, || assert_eq!(thread_budget(), 1000));
            std::thread::scope(|s| {
                s.spawn(|| assert_ne!(thread_budget(), 1000));
            });
        });
        assert_ne!(thread_budget(), 1000);
        let caught = std::panic::catch_unwind(|| with_thread_budget(1000, || panic!("boom")));
        assert!(caught.is_err());
        assert_ne!(thread_budget(), 1000);
    }

    #[test]
    fn small_inputs_stay_serial() {
        // min_items_per_thread larger than the input forces the serial
        // path; just assert correctness.
        let items = [5usize; 4];
        let out = par_map(&items, 1000, |i, &x| i + x);
        assert_eq!(out, vec![5, 6, 7, 8]);
    }

    #[test]
    fn par_for_each_index_visits_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        par_for_each_index(500, 1, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
