//! Deterministic parallel execution.
//!
//! The simulator's determinism contract — same seed, bit-identical
//! output — must survive parallelism. This module provides an
//! order-preserving parallel map whose results are **independent of the
//! worker count**: each item is evaluated by a pure function of
//! `(index, item)`, and results are put back in input order by index.
//! Which worker ran an item, and when, never reaches the output, so
//! running with 1 thread or 16 produces the same bytes. One worker runs
//! inline on the calling thread: `WISCAPE_THREADS=1` is the serial
//! reference.
//!
//! The schedule is fixed too. Item `i` goes to a worker chosen from `i`
//! and the worker count alone, so a worker runs the same items in the
//! same order on every call. The calling thread is worker 0. The other
//! workers keep their results until the caller has copied them, and then
//! free them on the thread that allocated them. glibc gives each thread
//! its own malloc arena and caches small freed blocks per thread. So a
//! result freed on the caller would stay in the caller's cache while its
//! worker's arena still counts it as in use. Where such blocks sit would
//! then depend on timing, and so would the memory that a call leaves
//! resident. With both rules, each arena sees the same allocations on
//! every call. A `par_map` inside an item runs inline on its worker.
//!
//! The worker count comes from the `WISCAPE_THREADS` environment
//! variable when set, else from [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock, PoisonError};

/// Obs handles for the executor, registered once. Everything recorded
/// here is a function of the input length alone (calls, items) — never
/// of the worker count or the schedule — so the deterministic snapshot
/// sections stay thread-count-invariant. Wall-clock duration goes
/// through `obs::timing` (the exempt section).
struct ExecMetrics {
    calls: wiscape_obs::Counter,
    items: wiscape_obs::Counter,
}

fn metrics() -> &'static ExecMetrics {
    static M: OnceLock<ExecMetrics> = OnceLock::new();
    M.get_or_init(|| ExecMetrics {
        calls: wiscape_obs::counter("exec/par_map_calls"),
        items: wiscape_obs::counter("exec/items"),
    })
}

/// Worker threads to use: `WISCAPE_THREADS` if set to a positive
/// integer, else the machine's available parallelism.
pub fn thread_count() -> usize {
    std::env::var("WISCAPE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` in parallel on [`thread_count`] workers,
/// returning results in input order. `f` must be a pure function of its
/// arguments; under that contract the output is bitwise identical for
/// any worker count. Results are `Clone` because the caller copies those
/// of the other workers (see the module docs).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Clone,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with_threads(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (the `WISCAPE_THREADS`
/// override resolved by the caller, or a test pinning both sides of a
/// determinism comparison). Runs on `min(threads, items.len())`
/// workers, the calling thread among them; with at most one, or when
/// called from inside a worker, it runs inline. A panic in `f` is
/// re-raised on the calling thread once every worker has stopped.
pub fn par_map_with_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Clone,
    F: Fn(usize, &T) -> U + Sync,
{
    let m = metrics();
    m.calls.inc();
    m.items.add(items.len() as u64);
    let _wall = wiscape_obs::timing::wall_span("exec/par_map");
    let workers = if IN_WORKER.get() {
        1
    } else {
        threads.min(items.len())
    };
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    // Worker `w` runs the items `owner` deals it, in input order. Panics
    // are caught so that every thread still reaches both barrier waits.
    let run = |w: usize| {
        IN_WORKER.set(true);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            items
                .iter()
                .enumerate()
                .filter(|&(i, _)| owner(i, workers) == w)
                .map(|(i, x)| (i, f(i, x)))
                .collect::<Vec<_>>()
        }));
        IN_WORKER.set(false);
        out
    };
    // Workers 1.. leave their results in `slots`. Between the two waits
    // the caller copies them; after the second, each worker frees its own.
    let slots: Vec<Slot<U>> = (1..workers).map(|_| Mutex::new(None)).collect();
    let barrier = Barrier::new(workers);
    let (run, slots, barrier) = (&run, &slots, &barrier);
    let (mut done, panicked) = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .zip(slots)
            .map(|(w, slot)| {
                scope.spawn(move || {
                    let out = run(w);
                    *lock(slot) = Some(out);
                    barrier.wait();
                    barrier.wait();
                    drop(lock(slot).take());
                })
            })
            .collect();
        let (mut done, mut panicked) = match run(0) {
            Ok(done) => (done, None),
            Err(payload) => (Vec::new(), Some(payload)),
        };
        barrier.wait();
        let copied = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for slot in slots {
                let mut slot = lock(slot);
                match slot.as_ref() {
                    Some(Ok(theirs)) => done.extend(theirs.iter().map(|(i, u)| (*i, u.clone()))),
                    _ => {
                        if let Some(Err(payload)) = slot.take() {
                            panicked.get_or_insert(payload);
                        }
                    }
                }
            }
        }));
        if let Err(payload) = copied {
            panicked.get_or_insert(payload);
        }
        barrier.wait();
        // Joining (not just leaving the scope) waits until each worker
        // thread has exited and handed its arena back.
        for h in handles {
            if let Err(payload) = h.join() {
                panicked.get_or_insert(payload);
            }
        }
        (done, panicked)
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

/// One worker's results, or the payload of the panic that stopped it.
type Slot<U> = Mutex<Option<std::thread::Result<Vec<(usize, U)>>>>;

/// Locks a slot. A panic while copying from it leaves its contents
/// intact, so a poisoned lock is used as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while this thread runs items of a parallel call: a `par_map`
    /// inside an item then runs inline instead of starting workers.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker that runs item `i` of a call on `workers` workers. Items
/// are dealt in rounds of `workers`, reversing direction every round
/// (`0, 1, .., w-1`, then `w-1, .., 1, 0`), so a cost that trends along
/// the input evens out across workers.
fn owner(i: usize, workers: usize) -> usize {
    let (round, seat) = (i / workers, i % workers);
    if round % 2 == 0 {
        seat
    } else {
        workers - 1 - seat
    }
}

/// Mutates each item of `items` in place, in parallel, on at most
/// [`thread_count`] threads. `f` receives `(index, &mut item)` and must
/// be a pure function of the item's prior state and the index; under
/// that contract the result is bitwise identical for any worker count.
///
/// The items are cut into contiguous runs of `ceil(items / threads)`,
/// each folded in index order on its own scoped thread: with no more
/// items than workers (one coordinator shard per worker) that is one
/// thread per item. With one worker or one item it runs inline.
///
/// This primitive is **panic-free** (no locks, no `expect`) so it may
/// be called from panic-proved surfaces such as the shard ingest path.
pub fn par_map_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_map_mut_with_threads(thread_count(), items, f);
}

/// [`par_map_mut`] with an explicit worker count.
fn par_map_mut_with_threads<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let per = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (k, run) in items.chunks_mut(per).enumerate() {
            scope.spawn(move || {
                for (j, item) in run.iter_mut().enumerate() {
                    f(k * per + j, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_with_threads(threads, &items, |i, x| x * 3 + i as u64);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_with_threads(4, &empty, |_, x| *x), empty);
        assert_eq!(
            par_map_with_threads(4, &[7u32], |i, x| *x + i as u32),
            vec![7]
        );
    }

    /// Two items on two workers must run at the same time: each waits
    /// (up to a deadline, so a serial schedule fails instead of
    /// hanging) until both have started.
    #[test]
    fn small_inputs_run_on_every_worker() {
        let started = AtomicUsize::new(0);
        let saw_both = par_map_with_threads(2, &[0u8, 1], |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            started.load(Ordering::SeqCst) == 2
        });
        assert_eq!(saw_both, vec![true, true]);
    }

    /// A panic on a spawned worker (item 1) and one on the calling
    /// thread (item 5, worker 0 of 3) both come back with their payload,
    /// after the other workers have met at the copy step.
    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..8).collect();
        for bad in [1, 5] {
            let caught = std::panic::catch_unwind(|| {
                par_map_with_threads(3, &items, |i, x| {
                    assert_ne!(i, bad, "item {bad} fails");
                    *x
                })
            });
            let payload = caught.expect_err("the panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains(&format!("item {bad} fails")),
                "payload: {message:?}"
            );
        }
        // The calling thread is usable as a parallel caller again.
        assert_eq!(par_map_with_threads(3, &items, |_, x| *x), items);
    }

    #[test]
    fn items_are_dealt_in_alternating_rounds() {
        let dealt = |workers: usize, n: usize| -> Vec<usize> {
            (0..n).map(|i| owner(i, workers)).collect()
        };
        assert_eq!(dealt(2, 7), [0, 1, 1, 0, 0, 1, 1]);
        assert_eq!(dealt(3, 8), [0, 1, 2, 2, 1, 0, 0, 1]);
        for workers in 1..6 {
            let mut load = vec![0usize; workers];
            for w in dealt(workers, 19) {
                load[w] += 1;
            }
            let (min, max) = (load.iter().min(), load.iter().max());
            assert!(max.zip(min).is_some_and(|(a, b)| a - b <= 1), "{load:?}");
        }
    }

    /// A `par_map` inside an item stays on the thread running that item.
    #[test]
    fn nested_calls_run_inline_on_their_worker() {
        let outer: Vec<u32> = (0..4).collect();
        let same_thread = par_map_with_threads(2, &outer, |_, _| {
            let me = std::thread::current().id();
            par_map_with_threads(4, &outer, |_, _| std::thread::current().id())
                .iter()
                .all(|id| *id == me)
        });
        assert_eq!(same_thread, vec![true; 4]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn par_map_mut_matches_serial() {
        let mut par: Vec<u64> = (0..9).collect();
        let mut serial = par.clone();
        for (i, x) in serial.iter_mut().enumerate() {
            *x = *x * 7 + i as u64;
        }
        par_map_mut(&mut par, |i, x| *x = *x * 7 + i as u64);
        assert_eq!(par, serial);
        let mut empty: Vec<u64> = Vec::new();
        par_map_mut(&mut empty, |_, _| {});
        assert!(empty.is_empty());
    }

    /// More items than workers share the workers' threads, one
    /// contiguous run per thread; no more items than workers get a
    /// thread each. Both give the serial result.
    #[test]
    fn par_map_mut_starts_at_most_one_thread_per_worker() {
        for (threads, n, want) in [(2, 8, 2), (4, 3, 3)] {
            let mut items: Vec<(u64, Option<std::thread::ThreadId>)> =
                (0..n).map(|x| (x, None)).collect();
            par_map_mut_with_threads(threads, &mut items, |i, (x, id)| {
                *x = *x * 7 + i as u64;
                *id = Some(std::thread::current().id());
            });
            let values: Vec<u64> = items.iter().map(|&(x, _)| x).collect();
            let serial: Vec<u64> = (0..n).map(|x| x * 8).collect();
            assert_eq!(values, serial, "threads={threads} items={n}");
            let ids: Vec<String> = items.iter().map(|(_, id)| format!("{id:?}")).collect();
            let distinct: std::collections::BTreeSet<&String> = ids.iter().collect();
            // Each thread's items are one contiguous run.
            let runs = 1 + ids.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(
                (distinct.len(), runs),
                (want, want),
                "{threads} x {n}: {ids:?}"
            );
        }
    }
}
