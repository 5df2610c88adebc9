//! A minimal scoped worker pool for embarrassingly parallel sweeps.
//!
//! The figure sweeps of the evaluation (`bench`) are grids of *independent*
//! cycle-accurate simulations — each grid point owns its simulator, its
//! traffic source and its derived seed, and no state is shared between
//! points. That makes them trivially parallel, but the build environment has
//! no access to crates.io (so no rayon); this module is the hand-rolled
//! substitute: [`scope_map`] fans an index range out over
//! [`std::thread::scope`] workers pulling from an atomic work counter and
//! collects the results **ordered by index**, so parallel execution is
//! observationally identical to a serial loop.
//!
//! ```
//! use simkit::pool::scope_map;
//!
//! let squares = scope_map(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (1 when it cannot be determined) —
/// the default worker count for sweeps that don't specify one.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Evaluates `f(0)`, `f(1)`, …, `f(n - 1)` across at most `jobs` worker
/// threads and returns the results in index order.
///
/// Work is distributed dynamically (an atomic next-index counter), so
/// uneven per-point cost — e.g. low-load simulation points finishing far
/// faster than saturated ones — does not idle workers. With `jobs <= 1`
/// (or `n <= 1`) the closure runs on the calling thread with no
/// synchronization at all; the output is identical either way, which is
/// what lets the `bench` sweeps promise bit-identical figures for any
/// `--jobs` value.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope unwinds once all workers exit).
pub fn scope_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("slot lock never poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock never poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

/// A dispatched task: type-erased closure pointer plus its call thunk.
// SAFETY: the thunk's contract — the pointer is a live `F` matching the
// thunk's instantiation — is upheld by `Crew::run`, the only writer, which
// publishes both halves together and keeps the closure alive for the epoch.
type Thunk = (*const (), unsafe fn(*const (), usize));

/// State shared between the crew leader and its workers.
struct CrewShared {
    /// Bumped (release) by the leader after publishing a task; workers spin
    /// on it (acquire) so the task write happens-before the task read.
    epoch: AtomicU64,
    /// Workers that finished the current epoch's task.
    done: AtomicUsize,
    /// Workers that panicked (their thread is gone; the leader must not
    /// wait for them again).
    poisoned: AtomicUsize,
    /// Set before the final epoch bump to shut the crew down.
    stop: AtomicBool,
    /// The current task. Only the leader writes it, and only between
    /// epochs (after all workers reported done), so accesses never race.
    task: UnsafeCell<Option<Thunk>>,
}

// SAFETY: `task` is only written by the leader while no worker is between
// its epoch-acquire and done-release (enforced by `Crew::run` waiting for
// `done + poisoned == workers - 1` before returning), so the UnsafeCell is
// never accessed concurrently.
unsafe impl Sync for CrewShared {}

/// Spin briefly, then yield — the wait is either a few hundred nanoseconds
/// (all shards similar-sized) or long enough that burning the core is rude.
fn relax(spins: &mut u32) {
    *spins += 1;
    if *spins < 128 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// A fixed crew of workers for repeated fork/join dispatch.
///
/// [`scope_map`] spawns threads per call, which is fine for sweeps that
/// dispatch once, but a region-sharded simulation forks and joins **every
/// cycle** — hundreds of thousands of times per run. `crew_scope` spawns
/// the workers once; each [`run`](Crew::run) hands every worker the same
/// closure (called with its worker index) and returns once all of them
/// finished, giving a cycle barrier without thread churn.
///
/// Worker 0 is the calling thread itself, so a crew of `n` uses `n - 1`
/// spawned threads and `workers <= 1` degenerates to a plain closure call
/// with no synchronization at all — the serial engine path.
///
/// ```
/// use simkit::pool::crew_scope;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let sum = AtomicUsize::new(0);
/// crew_scope(4, |crew| {
///     for _ in 0..10 {
///         crew.run(&|w| {
///             sum.fetch_add(w, Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 10 * (0 + 1 + 2 + 3));
/// ```
pub struct Crew<'a> {
    shared: Option<&'a CrewShared>,
    workers: usize,
}

impl Crew<'_> {
    /// Total workers, including the calling thread (always ≥ 1).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(w)` for every worker index `w` in `0..workers()` — `f(0)` on
    /// the calling thread, the rest on the crew — and returns once **all**
    /// calls completed (the barrier the sharded engines commit behind).
    ///
    /// # Panics
    ///
    /// Panics if a worker's `f` panicked (the original panic also
    /// propagates when the scope joins).
    pub fn run<F>(&self, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        let Some(shared) = self.shared else {
            f(0);
            return;
        };
        /// SAFETY contract: `data` points at a live `F`.
        unsafe fn call<F: Fn(usize)>(data: *const (), w: usize) {
            // SAFETY: forwarding the function's own contract — the caller
            // guarantees `data` points at a live `F`.
            unsafe { (*data.cast::<F>())(w) }
        }
        // SAFETY: all workers from the previous epoch reported done (or
        // poisoned), so no worker reads `task` until the epoch bump below.
        unsafe {
            *shared.task.get() = Some((std::ptr::from_ref(f).cast(), call::<F>));
        }
        shared.done.store(0, Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        f(0);
        let mut spins = 0;
        loop {
            let finished =
                shared.done.load(Ordering::Acquire) + shared.poisoned.load(Ordering::Acquire);
            if finished >= self.workers - 1 {
                break;
            }
            relax(&mut spins);
        }
        assert!(
            shared.poisoned.load(Ordering::Acquire) == 0,
            "crew worker panicked"
        );
    }

    /// Runs `f(w, &mut parts[w])` for every worker index `w`, like
    /// [`run`](Self::run): each worker gets exclusive use of its own part.
    /// This is how a region-sharded engine hands every worker the `&mut`
    /// slices of its region. Each part sits behind its own mutex, which
    /// only its worker ever locks, so the locks never contend.
    ///
    /// ```
    /// use simkit::pool::crew_scope;
    ///
    /// let mut totals = vec![0u64; 3];
    /// crew_scope(3, |crew| {
    ///     for _ in 0..10 {
    ///         crew.run_each(&mut totals, &|w, total| *total += w as u64);
    ///     }
    /// });
    /// assert_eq!(totals, [0, 10, 20]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `parts` does not hold exactly one part per worker, or if a
    /// worker's `f` panicked.
    pub fn run_each<T, F>(&self, parts: &mut [T], f: &F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        assert_eq!(parts.len(), self.workers, "one part per crew worker");
        let parts: Vec<Mutex<&mut T>> = parts.iter_mut().map(Mutex::new).collect();
        self.run(&|w| f(w, &mut parts[w].lock().expect("worker part lock")));
    }
}

/// Runs `f` with a [`Crew`] of `workers` threads (including the caller),
/// spawning the extra threads once and joining them when `f` returns.
///
/// # Panics
///
/// Propagates panics from `f` or from worker tasks.
pub fn crew_scope<R>(workers: usize, f: impl FnOnce(&Crew<'_>) -> R) -> R {
    let workers = workers.max(1);
    if workers == 1 {
        return f(&Crew {
            shared: None,
            workers: 1,
        });
    }
    let shared = CrewShared {
        epoch: AtomicU64::new(0),
        done: AtomicUsize::new(0),
        poisoned: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        task: UnsafeCell::new(None),
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let shared = &shared;
            s.spawn(move || {
                let mut seen = 0u64;
                loop {
                    let mut spins = 0;
                    let epoch = loop {
                        let e = shared.epoch.load(Ordering::Acquire);
                        if e != seen {
                            break e;
                        }
                        relax(&mut spins);
                    };
                    seen = epoch;
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    // SAFETY: the leader published the task before the
                    // epoch bump we just acquired, and keeps it alive until
                    // we report done below.
                    let (data, call) =
                        unsafe { (*shared.task.get()).expect("task published before epoch bump") };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        // SAFETY: thunk invariant — `data` points at the
                        // leader's closure, alive for the whole epoch.
                        || unsafe { call(data, w) },
                    ));
                    match outcome {
                        Ok(()) => {
                            shared.done.fetch_add(1, Ordering::Release);
                        }
                        Err(payload) => {
                            shared.poisoned.fetch_add(1, Ordering::Release);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
            });
        }
        // Shut the crew down even if `f` (or a barrier in `run`) panics —
        // otherwise the spinning workers would never exit and the scope
        // join below would hang instead of propagating the panic.
        struct StopGuard<'a>(&'a CrewShared);
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.0.stop.store(true, Ordering::Release);
                self.0.epoch.fetch_add(1, Ordering::Release);
            }
        }
        let _stop = StopGuard(&shared);
        f(&Crew {
            shared: Some(&shared),
            workers,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = scope_map(jobs, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // Same float pipeline serial and parallel: bit-identical results.
        let work = |i: usize| (i as f64 + 0.25).sqrt() * 1.0e9;
        let serial = scope_map(1, 37, work);
        let parallel = scope_map(5, 37, work);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_and_oversubscribed_jobs_are_clamped() {
        assert_eq!(scope_map(0, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(scope_map(100, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_range_yields_empty_vec() {
        let out: Vec<usize> = scope_map(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = scope_map(7, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            scope_map(2, 4, |i| {
                assert!(i != 2, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn crew_runs_every_worker_every_epoch() {
        use std::sync::atomic::AtomicU64;
        for workers in [1, 2, 3, 8] {
            let hits = AtomicU64::new(0);
            crew_scope(workers, |crew| {
                assert_eq!(crew.workers(), workers.max(1));
                for _ in 0..50 {
                    crew.run(&|w| {
                        hits.fetch_add(1 + w as u64, Ordering::Relaxed);
                    });
                }
            });
            let per_epoch: u64 = (1..=workers.max(1) as u64).sum();
            assert_eq!(hits.load(Ordering::Relaxed), 50 * per_epoch);
        }
    }

    #[test]
    fn crew_run_is_a_barrier() {
        // Writes from every worker in epoch N must be visible to every
        // worker in epoch N+1: each epoch increments disjoint slots, then
        // the next epoch asserts all slots advanced together.
        let slots: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        crew_scope(4, |crew| {
            for epoch in 0..200 {
                crew.run(&|w| {
                    assert_eq!(slots[w].load(Ordering::Relaxed), epoch);
                    for s in &slots {
                        assert!(s.load(Ordering::Relaxed) >= epoch);
                    }
                    slots[w].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        for s in &slots {
            assert_eq!(s.load(Ordering::Relaxed), 200);
        }
    }

    #[test]
    fn crew_returns_closure_value() {
        let out = crew_scope(3, |crew| {
            let mut total = 0u64;
            crew.run(&|_| {});
            for i in 0..10u64 {
                total += i;
            }
            total
        });
        assert_eq!(out, 45);
    }

    #[test]
    fn crew_worker_panic_propagates_without_hanging() {
        let caught = std::panic::catch_unwind(|| {
            crew_scope(3, |crew| {
                crew.run(&|w| {
                    assert!(w != 2, "boom in worker");
                });
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn run_each_hands_every_worker_its_own_part() {
        for workers in [1, 2, 3, 8] {
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); workers];
            crew_scope(workers, |crew| {
                for epoch in 0..50 {
                    crew.run_each(&mut parts, &|w, part: &mut Vec<usize>| {
                        part.push(w * 1000 + epoch);
                    });
                }
            });
            for (w, part) in parts.iter().enumerate() {
                let expected: Vec<usize> = (0..50).map(|e| w * 1000 + e).collect();
                assert_eq!(part, &expected, "{workers} workers, part {w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one part per crew worker")]
    fn run_each_wants_one_part_per_worker() {
        crew_scope(2, |crew| crew.run_each(&mut [0u8; 3], &|_, _| {}));
    }

    #[test]
    fn serial_crew_needs_no_threads() {
        // workers <= 1: the closure must run inline on the caller.
        let tid = std::thread::current().id();
        crew_scope(0, |crew| {
            crew.run(&|w| {
                assert_eq!(w, 0);
                assert_eq!(std::thread::current().id(), tid);
            });
        });
    }
}
