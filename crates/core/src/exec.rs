//! The one parallel executor behind every fan-out in this crate: campaign
//! task lists, scheduler chunks and fuzz classification all run through
//! [`map_indexed`], and nothing else here spawns threads.
//!
//! Workers claim indices from one shared atomic cursor, so a fast core
//! keeps claiming while a slow one finishes its task, and results are
//! returned in index order whatever the interleaving was. Callers get
//! output that is independent of the thread count as long as each task is
//! a pure function of its index and the worker state is only a cache
//! (a warm machine, a warm oracle).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

/// Runs `task(state, i)` for every `i` in `0..n` and returns the results
/// in index order.
///
/// - `threads == 0` means all available parallelism; the count is
///   clamped to `n`.
/// - With one thread or fewer the tasks run inline on the caller's
///   thread, and nothing is spawned.
/// - Otherwise scoped workers each build one state with `init` and claim
///   the next index from a shared cursor until the indices run out.
///
/// After a task fails, workers stop claiming new indices and the
/// lowest-index error is returned. Claims are monotone, so every index
/// below a failed one has already been claimed and run: the error
/// returned is the one a sequential run of every task would hit first.
///
/// A panicking task propagates its panic to the caller.
pub(crate) fn map_indexed<S, T, E>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    let threads = match threads {
        0 => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        t => t,
    }
    .min(n);
    if threads <= 1 {
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut state = init();
        return (0..n).map(|i| task(&mut state, i)).collect();
    }
    // Both atomics publish no other data (results travel through the
    // joins), so `Relaxed` is enough: `fetch_add` alone makes each claim
    // unique, and a late-seen `failed` only costs one more claim.
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = task(&mut state, i);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    let mut done: Vec<(usize, Result<T, E>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [0, 1, 2, 7] {
            for n in [0, 1, 3, 100] {
                let out = map_indexed(n, threads, || (), |(), i| Ok::<_, ()>(i * i)).unwrap();
                assert_eq!(
                    out,
                    (0..n).map(|i| i * i).collect::<Vec<_>>(),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn one_thread_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids = map_indexed(5, 1, || (), |(), _| Ok::<_, ()>(thread::current().id())).unwrap();
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn at_most_one_state_per_worker_is_built() {
        for (threads, n) in [(1, 10), (3, 10), (7, 2), (4, 0), (0, 50)] {
            let built = AtomicUsize::new(0);
            let init = || built.fetch_add(1, Ordering::Relaxed);
            map_indexed(n, threads, init, |_, i| Ok::<_, ()>(i)).unwrap();
            let cap = if threads == 0 { n } else { threads.min(n) };
            assert!(
                built.load(Ordering::Relaxed) <= cap,
                "threads={threads} n={n}: built {} states",
                built.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn the_lowest_index_error_wins_even_when_a_higher_one_fails_first() {
        // The barrier holds index 0 until index 1 has reached its
        // failure; index 0 then fails too. The executor must report
        // index 0's error.
        let gate = Barrier::new(2);
        let order = Mutex::new(Vec::new());
        let err = map_indexed(
            2,
            2,
            || (),
            |(), i| {
                if i == 1 {
                    order.lock().unwrap().push(1);
                    gate.wait();
                } else {
                    gate.wait();
                    order.lock().unwrap().push(0);
                }
                Err::<(), _>(i)
            },
        )
        .unwrap_err();
        assert_eq!(*order.lock().unwrap(), [1, 0], "index 1 ran ahead");
        assert_eq!(err, 0);
    }

    #[test]
    fn the_inline_path_stops_at_the_first_failure() {
        let ran = AtomicUsize::new(0);
        let inline = map_indexed(
            100,
            1,
            || (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    Err(i)
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(inline, Err(3));
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }
}
