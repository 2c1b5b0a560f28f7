//! Deterministic scoped-thread pool over an owned job set.
//!
//! [`fan_out`] is the workspace's one parallel primitive: the experiment
//! runner (`run_many`), the boundary training flush and the overlapped
//! drift stage all run on it. Jobs are **owned** and moved to the worker
//! that claims them; workers claim job indices dynamically from one
//! shared cursor (so mixed-length jobs stay balanced) and each keeps one
//! `make_state()` scratch value for its lifetime. Results land in
//! index-addressed slots that the caller joins **lazily** through a
//! [`Joins`] handle — [`take`](Joins::take) one index when it is needed,
//! [`drain`](Joins::drain) the rest — while the workers keep running.
//! [`fan_out_collect`] is the blocking form: a drain of the same pool.
//!
//! The pool is scoped (`std::thread::scope`), so jobs may borrow from the
//! caller (the training flush lends each job a `&mut` model) and every
//! worker has exited by the time [`fan_out`] returns.
//!
//! Determinism: each job's result is a pure function of its index and
//! its job (the caller guarantees jobs are independent), every index is
//! executed by exactly one worker, and results are index-addressed — so
//! *which* worker ran a job and *when* the caller joined it affect wall
//! time only, never a value. The result is bit-identical to the
//! sequential `jobs.into_iter().enumerate().map(…)` loop at any thread
//! count.
//!
//! This module is the **only** sanctioned home for thread spawning in
//! the workspace (simlint's `no-adhoc-threading` rule): every parallel
//! construct must route through [`fan_out`] so the checking below covers
//! it.
//!
//! # Race checking
//!
//! Two layers close the loop on the discipline the comments above only
//! promise:
//!
//! * every [`fan_out`] keeps an execute-exactly-once claim ledger (one
//!   counter per index, bumped by the worker that runs it) and a
//!   join-exactly-once bitmap on the caller side, and verifies both
//!   before it returns: a double execution, a double join or a slot the
//!   caller never joined panics. A worker panic surfaces at the
//!   [`take`](Joins::take) waiting for its slot instead of deadlocking;
//! * [`fan_out_check`] is a seeded adversarial schedule-replay harness:
//!   it derives K deterministic claim-order permutations from a
//!   [`Prng`] seed, replays the job set under each permutation at every
//!   requested thread count (worker `w` deterministically executes
//!   permuted positions `w, w+W, w+2W, …`), and asserts each replay is
//!   bit-equal to the sequential loop. A job set that secretly depends
//!   on claim order or worker assignment fails loudly instead of
//!   passing because the OS happened to schedule benignly.

use crate::rng::Prng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The worker-thread count a fan-out over `n` jobs actually uses:
/// `threads` capped at the job count, with `threads == 0` falling back
/// to the host's available parallelism (the ambient default the
/// schedulers run under). Exposed so callers can *record* the resolved
/// count — bench rows document the host parallelism they ran under.
pub fn resolved_threads(n: usize, threads: usize) -> usize {
    if n == 0 {
        return 0;
    }
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n)
    } else {
        threads.min(n)
    }
}

/// One claim counter per job index: a worker bumps an index's counter
/// when it executes that job, and [`verify`](ClaimLedger::verify)
/// asserts — after the workers exited — that every index ran exactly
/// once. A double claim (two workers running the same job) or a lost
/// slot (an index no worker ran) is a broken pool, never a benign race:
/// both would silently desynchronise the parallel result from the
/// sequential loop.
struct ClaimLedger {
    claims: Vec<AtomicUsize>,
}

impl ClaimLedger {
    fn new(n: usize) -> Self {
        ClaimLedger {
            claims: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Records that a worker claimed `idx`.
    fn claim(&self, idx: usize) {
        self.claims[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Asserts the exactly-once claim discipline. Called after the
    /// workers exited, so all claim counters are quiescent.
    fn verify(&self, context: &str) {
        for (idx, c) in self.claims.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            assert!(
                n == 1,
                "{context} ledger: index {idx} executed {n} times (expected exactly once)"
            );
        }
    }
}

/// Result slots shared between a pool's workers and its [`Joins`]
/// handle.
struct Results<T> {
    state: Mutex<Slots<T>>,
    /// Signalled on every slot completion and on worker exit.
    ready: Condvar,
}

struct Slots<T> {
    /// `None` = pending or already joined (the handle's `taken` bitmap
    /// tells the two apart), `Some` = completed and not yet joined.
    results: Vec<Option<T>>,
    /// Workers still running. Guarded by the same lock as `results` so
    /// a join can tell "not yet" from "never coming": a worker that
    /// panics decrements this on unwind, and a waiter whose slot is
    /// empty with no workers left fails loudly instead of sleeping
    /// forever.
    workers_alive: usize,
}

impl<T> Results<T> {
    /// Locks the slots. A poisoned lock carries no torn state (slots
    /// hold whole values, written in one assignment), so it is
    /// recovered; a worker panic surfaces through `workers_alive`.
    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Decrements `workers_alive` (and wakes waiters) when a worker exits —
/// including by panic, so a caller blocked in [`Joins::take`] fails
/// loudly instead of deadlocking on a slot that will never fill.
struct WorkerExit<'a, T>(&'a Results<T>);

impl<T> Drop for WorkerExit<'_, T> {
    fn drop(&mut self) {
        self.0.lock().workers_alive -= 1;
        self.0.ready.notify_all();
    }
}

/// The caller's handle to a running [`fan_out`]: joins results by index
/// while the workers are still executing the rest.
pub struct Joins<'p, T> {
    results: &'p Results<T>,
    /// Join-exactly-once bitmap (caller side).
    taken: Vec<bool>,
}

impl<T> Joins<'_, T> {
    /// Joins slot `idx`, blocking until its worker has produced the
    /// result, and moves the value out.
    ///
    /// # Panics
    /// Panics if `idx` was already taken (the join-exactly-once ledger)
    /// or if every worker exited without producing it (a worker panic —
    /// surfaced here instead of deadlocking).
    pub fn take(&mut self, idx: usize) -> T {
        assert!(!self.taken[idx], "fan_out ledger: slot {idx} joined twice");
        let mut slots = self.results.lock();
        loop {
            if let Some(result) = slots.results[idx].take() {
                self.taken[idx] = true;
                return result;
            }
            assert!(
                slots.workers_alive > 0,
                "fan_out ledger: slot {idx} abandoned (a worker panicked before producing it)"
            );
            slots = self
                .results
                .ready
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Joins every not-yet-taken slot in index order and returns the
    /// `(index, result)` pairs — the backstop join at a stage boundary.
    pub fn drain(&mut self) -> Vec<(usize, T)> {
        let mut out = Vec::new();
        for idx in 0..self.taken.len() {
            if !self.taken[idx] {
                out.push((idx, self.take(idx)));
            }
        }
        out
    }
}

/// Runs `work(index, job, state)` for every job in `jobs` on up to
/// `threads` scoped worker threads (0 = the host's available
/// parallelism, always capped at the job count) while `join` runs on
/// the caller's thread with a [`Joins`] handle to the results; returns
/// what `join` returns.
///
/// Workers claim indices in ascending order from one shared cursor and
/// take ownership of the claimed job; each worker builds one
/// `make_state()` scratch value and reuses it across every job it runs.
/// At least one worker runs for a non-empty job set, even at width 1:
/// the caller's `join` body overlaps the workers rather than running
/// the jobs itself.
///
/// # Panics
/// Panics (after every worker exited) if `join` left a slot unjoined or
/// the claim ledger saw an index run other than exactly once; a panic
/// inside `join` or a worker propagates.
pub fn fan_out<J, T, S, R>(
    jobs: Vec<J>,
    threads: usize,
    make_state: impl Fn() -> S + Sync,
    work: impl Fn(usize, J, &mut S) -> T + Sync,
    join: impl FnOnce(&mut Joins<'_, T>) -> R,
) -> R
where
    J: Send,
    T: Send,
{
    let n = jobs.len();
    let width = resolved_threads(n, threads);
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let ledger = ClaimLedger::new(n);
    let results = Results {
        state: Mutex::new(Slots {
            results: (0..n).map(|_| None).collect(),
            workers_alive: width,
        }),
        ready: Condvar::new(),
    };

    let worker = || {
        let _exit = WorkerExit(&results);
        let mut state = make_state();
        loop {
            // Advancing the iterator cannot panic mid-update, so a
            // poisoned queue is still whole.
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((idx, job)) = claimed else {
                break;
            };
            ledger.claim(idx);
            let result = work(idx, job, &mut state);
            results.lock().results[idx] = Some(result);
            results.ready.notify_all();
        }
    };
    let (out, taken) = std::thread::scope(|scope| {
        for _ in 0..width {
            scope.spawn(worker);
        }
        let mut joins = Joins {
            results: &results,
            taken: vec![false; n],
        };
        let out = join(&mut joins);
        (out, joins.taken)
    });

    ledger.verify("fan_out");
    if let Some(idx) = taken.iter().position(|&t| !t) {
        panic!("fan_out ledger: slot {idx} executed but never joined");
    }
    out
}

/// The blocking form of [`fan_out`]: joins every result and returns
/// them in job order.
pub fn fan_out_collect<J, T, S>(
    jobs: Vec<J>,
    threads: usize,
    make_state: impl Fn() -> S + Sync,
    work: impl Fn(usize, J, &mut S) -> T + Sync,
) -> Vec<T>
where
    J: Send,
    T: Send,
{
    fan_out(jobs, threads, make_state, work, |joins| {
        joins.drain().into_iter().map(|(_, result)| result).collect()
    })
}

/// Seeded adversarial schedule-replay check for an index-space job set.
/// Returns the sequential reference result after asserting that every
/// adversarial execution reproduces it bit-for-bit:
///
/// 1. the production [`fan_out`] pool at every thread count in
///    `thread_counts` (racy claim order, whatever the OS does);
/// 2. for each of `permutations` seeds split from `seed`, a **forced**
///    deterministic schedule at every thread count: the claim order is
///    a seeded permutation of `0..n`, and worker `w` executes exactly
///    the permuted positions `w, w+W, w+2W, …` — so which worker runs
///    which job, and in what order, is fully pinned and replayable.
///    A claim ledger asserts every index ran exactly once per replay.
///
/// Together the two layers catch both failure classes of the pool
/// pattern: results that depend on *claim order* (shared mutable
/// capture, order-sensitive accumulation) and results that depend on
/// *worker identity* (per-worker state leaking between jobs).
///
/// `work` takes the job index plus the worker's state; `make_state`
/// builds one state per worker per replay. Panics (with the offending
/// schedule named) on any mismatch.
pub fn fan_out_check<T, S, M, F>(
    seed: u64,
    permutations: usize,
    thread_counts: &[usize],
    n: usize,
    make_state: M,
    work: F,
) -> Vec<T>
where
    T: Send + Sync + Clone + PartialEq + std::fmt::Debug,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    // Sequential reference: one state, ascending index order.
    let mut state = make_state();
    let reference: Vec<T> = (0..n).map(|i| work(i, &mut state)).collect();

    for &threads in thread_counts {
        // Layer 1: the production pool, OS-scheduled claim order.
        let pooled = fan_out_collect((0..n).collect(), threads, &make_state, |_, i, s| work(i, s));
        assert_eq!(
            pooled, reference,
            "fan_out_check(seed {seed}): production pool at {threads} thread(s) \
             diverged from the sequential loop"
        );
    }

    // simlint: allow(prng-stream-discipline) — fan_out_check is a test harness entry point: its `seed` parameter is the root of the replay-permutation stream
    let root = Prng::new(seed);
    for p in 0..permutations {
        // A deterministic claim-order permutation per replay, from a
        // stably-keyed child stream so replays never correlate.
        let mut perm: Vec<usize> = (0..n).collect();
        root.split(p as u64).shuffle(&mut perm);

        for &threads in thread_counts {
            let replayed = replay_schedule(&perm, threads.max(1), &make_state, &work);
            assert_eq!(
                replayed, reference,
                "fan_out_check(seed {seed}): forced schedule (permutation {p}, \
                 {threads} thread(s)) diverged from the sequential loop"
            );
        }
    }
    reference
}

/// Executes one forced schedule: worker `w` of `threads` runs the
/// permuted positions `w, w+threads, …` of `perm`, in that order, with
/// its own state — a fully deterministic claim order and worker
/// assignment. Verifies the exactly-once claim ledger before returning
/// the index-ordered results.
fn replay_schedule<T, S, M, F>(perm: &[usize], threads: usize, make_state: &M, work: &F) -> Vec<T>
where
    T: Send + Sync,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let n = perm.len();
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let ledger = ClaimLedger::new(n);

    std::thread::scope(|scope| {
        for w in 0..threads.min(n.max(1)) {
            let slots = &slots;
            let ledger = &ledger;
            scope.spawn(move || {
                let mut state = make_state();
                let mut pos = w;
                while pos < n {
                    let idx = perm[pos];
                    ledger.claim(idx);
                    let result = work(idx, &mut state);
                    if slots[idx].set(result).is_err() {
                        unreachable!("forced schedule dealt index {idx} twice");
                    }
                    pos += threads;
                }
            });
        }
    });

    ledger.verify("replay_schedule");
    slots
        .into_iter()
        // simlint: allow(no-unwrap-in-lib) — the ledger above verified every index was claimed exactly once
        .map(|slot| slot.into_inner().expect("every position executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indices(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn matches_sequential_map_in_order() {
        let seq: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(31)).collect();
        for threads in [0, 1, 2, 5, 64] {
            let par = fan_out_collect(indices(97), threads, || (), |_, i, ()| {
                (i as u64).wrapping_mul(31)
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_are_fine() {
        assert!(fan_out_collect(Vec::<usize>::new(), 4, || (), |_, i, ()| i).is_empty());
        assert_eq!(fan_out_collect(vec![0usize], 4, || (), |_, i, ()| i + 7), vec![7]);
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Each worker's state counts the jobs it ran; the results must
        // still cover every job once, in input order.
        let results = fan_out_collect(indices(50), 4, || 0usize, |_, i, ran: &mut usize| {
            *ran += 1;
            i
        });
        assert_eq!(results, indices(50), "input order kept");
    }

    #[test]
    fn resolved_threads_caps_and_falls_back() {
        assert_eq!(resolved_threads(0, 8), 0);
        assert_eq!(resolved_threads(5, 8), 5);
        assert_eq!(resolved_threads(8, 3), 3);
        let ambient = resolved_threads(1024, 0);
        assert!((1..=1024).contains(&ambient));
    }

    #[test]
    fn owned_fan_out_moves_each_job_exactly_once() {
        // Jobs are owned Strings; results carry the job back out, so the
        // order + content check proves every job was moved to exactly
        // one worker and its result landed in its own slot.
        for threads in [0, 1, 2, 3, 7, 64] {
            let jobs: Vec<String> = (0..41).map(|i| format!("job-{i}")).collect();
            let out = fan_out_collect(jobs, threads, || 0usize, |i, job, ran| {
                *ran += 1;
                (i, job)
            });
            for (i, (idx, job)) in out.iter().enumerate() {
                assert_eq!(*idx, i, "threads={threads}");
                assert_eq!(job, &format!("job-{i}"), "threads={threads}");
            }
        }
    }

    #[test]
    fn jobs_may_borrow_mutably_from_the_caller() {
        // The scoped pool lends each job a disjoint `&mut` — the shape
        // of the training flush.
        let mut cells = vec![0u64; 23];
        let jobs: Vec<&mut u64> = cells.iter_mut().collect();
        fan_out_collect(jobs, 4, || (), |i, cell, ()| *cell = i as u64 * 3);
        assert_eq!(cells, (0..23).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn fan_out_check_accepts_pure_jobs() {
        let reference = fan_out_check(
            42,
            3,
            &[1, 2, 4, 8],
            37,
            || 0u64,
            |i, acc: &mut u64| {
                // Worker-local state mutation is fine: the result only
                // depends on the index.
                *acc = acc.wrapping_add(1);
                (i as u64).wrapping_mul(0x9E37_79B9)
            },
        );
        assert_eq!(reference.len(), 37);
        assert_eq!(reference[3], 3u64.wrapping_mul(0x9E37_79B9));
    }

    #[test]
    #[should_panic(expected = "diverged from the sequential loop")]
    fn fan_out_check_rejects_state_dependent_jobs() {
        // A job whose result depends on how many jobs its worker ran
        // before it — exactly the per-worker-state leak the forced
        // schedules are built to expose.
        fan_out_check(
            7,
            2,
            &[2, 4],
            16,
            || 0usize,
            |i, ran: &mut usize| {
                *ran += 1;
                i + *ran
            },
        );
    }

    #[test]
    fn lazy_join_order_is_immaterial() {
        // Adversarial replay over the handoff: join the slots in seeded
        // permuted orders, at several thread counts, and assert the
        // joined values always equal the sequential reference — the
        // lazy-join analogue of fan_out_check's forced schedules.
        let n = 37;
        let reference: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let root = Prng::new(1213);
        for p in 0..4u64 {
            let mut order: Vec<usize> = (0..n).collect();
            root.split(p).shuffle(&mut order);
            for threads in [0, 1, 2, 4, 8] {
                let jobs: Vec<u64> = (0..n as u64).collect();
                let joined = fan_out(
                    jobs,
                    threads,
                    || (),
                    |_, j, ()| j.wrapping_mul(0x9E37_79B9),
                    |joins| {
                        let mut joined = vec![0u64; n];
                        for &idx in &order {
                            joined[idx] = joins.take(idx);
                        }
                        joined
                    },
                );
                assert_eq!(joined, reference, "permutation {p}, threads={threads}");
            }
        }
    }

    #[test]
    fn drain_collects_the_rest_in_index_order() {
        let rest = fan_out((0..9u64).collect(), 3, || (), |_, j, ()| j * 3, |joins| {
            assert_eq!(joins.take(4), 12);
            joins.drain()
        });
        let idxs: Vec<usize> = rest.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 5, 6, 7, 8]);
        for (i, v) in &rest {
            assert_eq!(*v, *i as u64 * 3);
        }
    }

    #[test]
    fn empty_pool_runs_the_join_body() {
        let drained = fan_out(Vec::<u8>::new(), 4, || (), |i, _, ()| i, |joins| joins.drain());
        assert!(drained.is_empty());
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn double_join_panics() {
        fan_out(vec![1u8, 2, 3], 2, || (), |_, j, ()| j, |joins| {
            let _ = joins.take(1);
            let _ = joins.take(1);
        });
    }

    #[test]
    #[should_panic(expected = "never joined")]
    fn abandoned_slot_panics_at_return() {
        fan_out(vec![1u8, 2, 3], 2, || (), |_, j, ()| j, |joins| {
            let _ = joins.take(0);
        });
    }

    #[test]
    #[should_panic(expected = "abandoned")]
    fn worker_panic_surfaces_at_take() {
        fan_out(indices(8), 2, || (), |_, i, ()| {
            assert!(i != 5, "job 5 fails");
            i
        }, |joins| {
            let _ = joins.drain();
        });
    }

    #[test]
    fn forced_schedules_cover_every_index_once() {
        // Direct replay_schedule exercise: an adversarial permutation
        // still executes each index exactly once (the ledger inside
        // would panic otherwise) and returns in index order.
        let perm: Vec<usize> = (0..20).rev().collect();
        let out = replay_schedule(&perm, 3, &|| (), &|i, ()| i * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }
}
