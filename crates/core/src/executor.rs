//! The repository's one thread pool: a deterministic self-scheduling map.
//!
//! Work items rarely cost the same: a fleet's clean cell decodes in a
//! fraction of the time a recovery-heavy cell takes, a figure grid mixes
//! cheap and expensive scenarios, and the bit positions of one decode sweep
//! converge at different speeds.  A static partition would leave workers idle
//! behind one expensive item, so the workers share one counter: each one,
//! the caller included, takes the next unclaimed index whenever it is free,
//! until none is left.
//!
//! Determinism: the counter only decides *which thread* runs an item and
//! *when* — never the item's input (each closure call sees only its own
//! item) nor where its result lands (results are written to the item's
//! original index).  So for a pure closure the output vector is
//! byte-identical for every thread count, which is what lets every
//! `reproduce` figure, `fig_fleet`, and the decoder's position-parallel sweep
//! ([`crate::bp`]) honour the repo-wide `--threads N == --threads 1`
//! contract.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The default worker count: one per hardware thread available to the
/// process (1 when the platform cannot tell).  Queried once and cached —
/// the decoder consults it on every decode call, and the query reads the
/// scheduler affinity and cgroup quota.
#[must_use]
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Maps `f` over `items` using up to `threads` workers, returning results
/// in input order.  The workers claim items one at a time, in input order,
/// by bumping one shared counter, so a worker stuck on an expensive item
/// never holds cheap ones back.
///
/// With `threads <= 1` (or at most one item) the map runs inline on the
/// caller's thread with no synchronization at all; otherwise the caller
/// runs the first worker beside at most `threads − 1` spawned ones.  The
/// closure only needs `Sync` (shared by reference across workers).  Every
/// buffer the map itself needs is allocated on the calling thread, so a
/// closure that allocates nothing keeps the workers allocation-free.
pub fn work_steal_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    let len = items.len();
    let workers = threads.min(len);
    // Item and result cells indexed by original position: whoever claims
    // index `i` takes item `i` and writes result `i`.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    // One worker's loop: claim the next index until every one is claimed.
    // `Relaxed` suffices: the counter publishes no data (each item and
    // result sits behind its own mutex, and the scope's join hands the
    // results back), and its read-modify-writes alone give every index to
    // exactly one worker.
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= len {
            break;
        }
        let item = cells[index]
            .lock()
            .expect("item lock poisoned")
            .take()
            .expect("each index is claimed exactly once");
        let out = f(item);
        *results[index].lock().expect("result lock poisoned") = Some(out);
    };
    // The calling thread runs the first worker, so a map spawns
    // `workers − 1` threads: one spawn beside the caller costs 35–38 µs on
    // a 2-core x86-64 VM, two spawned workers 53–54 µs.
    std::thread::scope(|scope| {
        let work = &work;
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result lock poisoned")
                .expect("all indices were processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn preserves_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..133).collect();
        let serial = work_steal_map(1, items.clone(), |x| x * x + 1);
        for threads in [2, 3, 4, 8, 200] {
            let parallel = work_steal_map(threads, items.clone(), |x| x * x + 1);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn float_work_is_byte_identical_across_thread_counts() {
        let items: Vec<u64> = (0..64).collect();
        let f = |x: u64| {
            let mut acc = 0.1_f64;
            for i in 0..x % 17 {
                acc = acc.mul_add(1.000_1, (i as f64).sin());
            }
            acc
        };
        let serial = work_steal_map(1, items.clone(), f);
        let parallel = work_steal_map(7, items, f);
        let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.iter().map(|v| v.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(work_steal_map(4, empty, |x| x), Vec::<u32>::new());
        assert_eq!(work_steal_map(4, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_runs_exactly_once_under_uneven_cost() {
        let calls = AtomicUsize::new(0);
        // Front-loaded cost: the first items are far more expensive than
        // the rest, so the other workers take the cheap ones meanwhile.
        let items: Vec<usize> = (0..100).collect();
        let out = work_steal_map(8, items, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i < 10 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn the_calling_thread_runs_the_first_worker() {
        let caller = std::thread::current().id();
        let out = work_steal_map(2, (0..64).collect::<Vec<u32>>(), |i| {
            (i, std::thread::current().id())
        });
        let others: HashSet<ThreadId> = out
            .iter()
            .map(|&(_, id)| id)
            .filter(|&id| id != caller)
            .collect();
        assert!(
            others.len() <= 1,
            "{} spawned threads ran items",
            others.len()
        );
        let order: Vec<u32> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = work_steal_map(32, (0..5).collect::<Vec<_>>(), |x| x + 100);
        assert_eq!(out, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
