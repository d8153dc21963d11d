//! Phase 2's costing step: the operand pairs one subset selected, costed
//! on the calling thread and on a process-wide pool of helper threads.
//!
//! Lemma 4 makes costing a join alternative a pure function of the two
//! children's cached costs, and [`CostModel::join_alternatives`] must
//! return the same bits for the same inputs on any thread. So phase 2
//! selects a subset's fresh pairs first, costs them here in any order, on
//! any thread, and only then routes their alternatives on the optimizing
//! thread in selection order: plan ids, result and candidate
//! sets and every counter come out as if each pair had been costed the
//! moment it was selected.
//!
//! A [`CostWindow`] holds at most [`WINDOW_PAIRS`] pairs and is cut into
//! chunks of [`CHUNK_PAIRS`]. Its size is chosen when a subset selects
//! its first pair in an invocation (see [`CostWindow::open`]): a subset
//! whose result set is still empty costs its first pairs in windows of
//! 1, 2, 4 … pairs, doubling after each flush up to [`WINDOW_PAIRS`], so
//! the plans its first windows route become witnesses for the floors of
//! the later ones (see below); a subset that already holds results, as in
//! every refinement, drag and warm resume, starts at [`WINDOW_PAIRS`].
//! The sizes depend on pair counts alone, so what is skipped does not
//! depend on the host.
//!
//! The calling thread always costs the first chunk itself and times it.
//! A window is offered to the pool in one of two ways, and the calling
//! thread goes on claiming chunks beside the helpers, so it only ever
//! waits for a chunk a helper is already running:
//! - *after* its first chunk, when the window has at least
//!   [`MIN_OFFER_CHUNKS`] chunks and that chunk took longer than waking a
//!   helper ([`WAKE_UP`]);
//! - *before* its first chunk, when it has two chunks or more and the
//!   first chunk of the subset's previous window predicted that a full
//!   chunk outlasts a wake-up. A helper then wakes while the calling
//!   thread costs the first chunk, which also puts a helper on the
//!   two-chunk windows an empty subset grows through.
//!
//! Cheap models, one-chunk windows and one-CPU hosts therefore cost
//! every pair inline, and an invocation that selects no pair never
//! touches the window or the pool.
//!
//! A panic inside the model on a helper is caught there, carried back
//! and resumed on the calling thread once every claimed chunk finished;
//! the helper itself lives on.
//!
//! # Skipping what `Prune` would discard
//!
//! When `Prune` can discard plans at this level, each pair's
//! [`CostModel::join_floors`] are first tested against the subset's
//! result set, which routing leaves untouched until the window is costed
//! (the [`Witnesses`] test `Prune` itself runs). A witness therefore only
//! ever comes from a plan an earlier window routed, which is why a subset
//! without results starts with small windows. Only the alternatives
//! that survive are costed, with [`CostModel::join_alternative`], or all
//! at once with `join_alternatives` when none was skipped; a skipped
//! alternative carries its floor and a flag, so routing gives it a plan
//! id but no arena node, and counts it discarded without pruning it, just
//! as it leaves a hole for a costed alternative `Prune` discards. A model
//! without floors costs everything.

use crate::optimizer::{SearchWork, Witnesses};
use moqo_cost::CostVector;
use moqo_costmodel::{CostModel, PlanInput};
use moqo_plan::{Operator, PhysicalProps, PlanId};
use moqo_query::QuerySpec;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// One costed join alternative: `(operator, cost, output properties)`.
pub(crate) type Alternative = (Operator, CostVector, PhysicalProps);

/// Pairs a window holds at most. A subset that selects more is costed
/// and routed in several windows, in selection order.
pub(crate) const WINDOW_PAIRS: usize = 256;

/// Pairs one claim covers: small enough to balance a window across the
/// pool, large enough that a claim costs little next to the costing.
const CHUNK_PAIRS: usize = 8;

/// Chunks a window needs before it is offered to the pool after its
/// first chunk: with only one chunk left, the calling thread claims it
/// before any helper is awake, so the offer would cost a wake-up and save
/// nothing.
const MIN_OFFER_CHUNKS: usize = 3;

/// About what handing work to a sleeping helper costs: a condvar hand-off
/// measured 12–17 µs on a 2-vCPU Xeon VM. A first chunk that cost less
/// predicts chunks no helper could take over profitably.
const WAKE_UP: Duration = Duration::from_micros(20);

/// Prefix of the helper threads' names (`moqo-cost-0`, `moqo-cost-1`, …).
pub const COST_THREAD_PREFIX: &str = "moqo-cost-";

/// A selected operand pair: the two child plans and what the cost model
/// sees of them.
#[derive(Clone, Copy)]
pub(crate) struct SelectedPair {
    pub(crate) left: PlanId,
    pub(crate) right: PlanId,
    pub(crate) left_in: PlanInput,
    pub(crate) right_in: PlanInput,
}

/// The costed alternatives of one chunk's pairs, flat, with each pair's
/// end offset into `alts`.
#[derive(Default)]
struct Chunk {
    alts: Vec<Alternative>,
    /// Per alternative: skipped, so `alts` holds its floor, not its cost.
    skipped: Vec<bool>,
    ends: Vec<u32>,
    /// What the chunk's skip tests cost.
    work: SearchWork,
    /// Scratch: the floors and skip verdicts of the pair being costed.
    floors: Vec<Alternative>,
    verdicts: Vec<bool>,
}

impl Chunk {
    /// Appends the alternatives of `pair`, costing only those whose floor
    /// `skip`'s witnesses do not discard.
    fn cost_pair(
        &mut self,
        model: &(dyn CostModel + Send + Sync),
        spec: &QuerySpec,
        pair: &SelectedPair,
        skip: Option<&Witnesses<'_>>,
    ) {
        let Self {
            alts,
            skipped,
            work,
            floors,
            verdicts,
            ..
        } = self;
        let (left, right) = (&pair.left_in, &pair.right_in);
        floors.clear();
        verdicts.clear();
        if let Some(witnesses) = skip {
            model.join_floors(spec, left, right, floors);
            for (_, floor, props) in floors.iter() {
                verdicts.push(witnesses.discards(floor, props, work));
            }
        }
        if !verdicts.contains(&true) {
            model.join_alternatives(spec, left, right, alts);
            skipped.resize(alts.len(), false);
            return;
        }
        for (&(op, floor, props), &skip) in floors.iter().zip(verdicts.iter()) {
            let alt = if skip {
                (op, floor, props)
            } else {
                let (cost, props) = model
                    .join_alternative(spec, left, right, op)
                    .expect("join_floors lists only operators join_alternatives offers");
                (op, cost, props)
            };
            alts.push(alt);
            skipped.push(skip);
        }
    }
}

/// Reusable scratch for one subset's selected pairs and their costed
/// alternatives. It allocates only while it grows to its largest window,
/// and [`IamaOptimizer::compact`](crate::IamaOptimizer::compact) drops it.
#[derive(Default)]
pub(crate) struct CostWindow {
    pairs: Vec<SelectedPair>,
    /// Pairs the window takes before it is costed; 0 while no subset has
    /// opened it.
    limit: usize,
    /// Whether the first chunk of the subset's previous window predicted
    /// that a full chunk outlasts a helper's wake-up.
    slow: bool,
    /// One slot per chunk; a chunk is costed by exactly one thread, so
    /// its lock is never contended.
    chunks: Vec<Mutex<Chunk>>,
    /// Per opening: whether the subset held results, and the size of
    /// each window it costed.
    #[cfg(test)]
    pub(crate) log: Vec<(bool, Vec<usize>)>,
}

impl CostWindow {
    /// Sizes the window for a subset that selected its first pair of the
    /// invocation: [`WINDOW_PAIRS`] if its result set holds a plan
    /// (`seeded`), else one pair, doubling after each flush.
    pub(crate) fn open(&mut self, seeded: bool) {
        self.limit = if seeded { WINDOW_PAIRS } else { 1 };
        self.slow = false;
        #[cfg(test)]
        self.log.push((seeded, Vec::new()));
    }

    /// Whether a subset opened the window and has not closed it.
    pub(crate) fn is_open(&self) -> bool {
        self.limit > 0
    }

    /// Ends the subset's opening: the next subset sizes the window anew.
    pub(crate) fn close(&mut self) {
        self.limit = 0;
    }

    pub(crate) fn push(&mut self, pair: SelectedPair) {
        self.pairs.push(pair);
    }

    pub(crate) fn is_full(&self) -> bool {
        self.pairs.len() >= self.limit
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Allocated capacity, in pairs (zero after a release).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.pairs.capacity()
    }

    /// Costs every pair of the window with `model`, on this thread and,
    /// when it pays, on the cost pool. With `skip`, an alternative whose
    /// floor those witnesses discard is not costed. Returns what the skip
    /// tests cost, summed over the chunks.
    pub(crate) fn cost(
        &mut self,
        model: &(dyn CostModel + Send + Sync),
        spec: &QuerySpec,
        skip: Option<&Witnesses<'_>>,
    ) -> SearchWork {
        let n = self.pairs.len().div_ceil(CHUNK_PAIRS);
        if self.chunks.len() < n {
            self.chunks.resize_with(n, Default::default);
        }
        let (pairs, chunks) = (&self.pairs, &self.chunks[..n]);
        let cost_chunk = |c: usize| {
            let mut chunk = lock(&chunks[c]);
            chunk.alts.clear();
            chunk.skipped.clear();
            chunk.ends.clear();
            chunk.work = SearchWork::default();
            for p in pairs[c * CHUNK_PAIRS..].iter().take(CHUNK_PAIRS) {
                chunk.cost_pair(model, spec, p, skip);
                let end = chunk.alts.len() as u32;
                chunk.ends.push(end);
            }
        };
        let first = pairs.len().min(CHUNK_PAIRS);
        self.slow = run_chunks(n, &cost_chunk, self.slow, first);
        let mut work = SearchWork::default();
        chunks.iter().for_each(|c| work.add(lock(c).work));
        work
    }

    /// Hands every pair with its alternatives and their skip flags to
    /// `route`, in selection order, empties the window and doubles its
    /// size, up to [`WINDOW_PAIRS`].
    pub(crate) fn drain(&mut self, mut route: impl FnMut(&SelectedPair, &[Alternative], &[bool])) {
        #[cfg(test)]
        if let Some((_, sizes)) = self.log.last_mut() {
            sizes.push(self.pairs.len());
        }
        for (pairs, chunk) in self.pairs.chunks(CHUNK_PAIRS).zip(&mut self.chunks) {
            let chunk = chunk.get_mut().unwrap_or_else(PoisonError::into_inner);
            let mut start = 0;
            for (pair, &end) in pairs.iter().zip(&chunk.ends) {
                let end = end as usize;
                route(pair, &chunk.alts[start..end], &chunk.skipped[start..end]);
                start = end;
            }
        }
        self.pairs.clear();
        self.limit = (self.limit * 2).min(WINDOW_PAIRS);
    }
}

/// Runs `task(c)` for every chunk `c` in `0..n`, the first on this
/// thread, and returns whether that chunk, timed, predicts that a full
/// chunk outlasts a helper's wake-up (`first` is its pair count). The
/// other chunks go to the pool before it when `slow` (the previous
/// window's prediction) says so, else after it if there are enough of
/// them and it predicts they pay for a wake-up.
fn run_chunks(n: usize, task: &Task<'_>, slow: bool, first: usize) -> bool {
    let timed_first = || {
        let start = Instant::now();
        task(0);
        start.elapsed() * CHUNK_PAIRS as u32 >= WAKE_UP * first as u32
    };
    if n == 0 {
        return slow;
    }
    // Started only by a window that wants it.
    let helpers = || Some(pool()).filter(|p| p.helpers > 0);
    if let Some(pool) = (slow && n >= 2).then(helpers).flatten() {
        return pool.run(1..n, task, timed_first);
    }
    let slow = timed_first();
    match (slow && n >= MIN_OFFER_CHUNKS).then(helpers).flatten() {
        Some(pool) => pool.run(1..n, task, || ()),
        None => (1..n).for_each(task),
    }
    slow
}

/// A chunked task: `task(c)` costs chunk `c`.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// The process-wide helper pool.
struct Pool {
    helpers: usize,
    shared: Arc<Shared>,
}

/// What the helpers and the offering threads share: the offered jobs and
/// the helpers' wake-up.
#[derive(Default)]
struct Shared {
    jobs: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

/// The pool, started by the first window that wants it, with
/// `available_parallelism() − 1` helpers, but no more than a window has
/// chunks beyond the first. The helpers live as long as the process and
/// are never joined; [`Job::work`] catches every panic, so none dies of
/// one.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let wanted = (cpus - 1).min(WINDOW_PAIRS / CHUNK_PAIRS - 1);
        let shared = Arc::new(Shared::default());
        let helpers = (0..wanted)
            .filter(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("{COST_THREAD_PREFIX}{i}"))
                    .spawn(move || helper(&shared))
                    .is_ok()
            })
            .count();
        Pool { helpers, shared }
    })
}

/// A helper's life: take the oldest job with unclaimed chunks, claim
/// chunks until none is left, repeat; sleep while no job is offered.
fn helper(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = lock(&shared.jobs);
            loop {
                jobs.retain(|j| !j.exhausted());
                if let Some(job) = jobs.front() {
                    break Arc::clone(job);
                }
                jobs = shared
                    .wake
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work();
    }
}

impl Pool {
    /// Offers `chunks` of `task` to the helpers, runs `first` while they
    /// wake, claims chunks beside them, and returns `first`'s result once
    /// every chunk finished, resuming the first panic a chunk (or
    /// `first`) raised.
    fn run<R>(&self, chunks: Range<usize>, task: &Task<'_>, first: impl FnOnce() -> R) -> R {
        let wanted = self.helpers.min(chunks.len());
        // SAFETY: only the lifetime is erased. The job dereferences
        // `task` only for a chunk it claimed, and this function returns
        // (or unwinds) only after `wait` saw every chunk finish, so no
        // thread calls `task` after the borrow ends. A helper may still
        // hold the `Arc<Job>` then, but finds nothing left to claim.
        let task: *const Task<'static> = unsafe { std::mem::transmute(task as *const Task<'_>) };
        let job = Arc::new(Job {
            task,
            end: chunks.end,
            total: chunks.len(),
            next: AtomicUsize::new(chunks.start),
            state: Mutex::new(JobState::default()),
            finished: Condvar::new(),
        });
        lock(&self.shared.jobs).push_back(Arc::clone(&job));
        for _ in 0..wanted {
            self.shared.wake.notify_one();
        }
        // A panic in `first` must not unwind past the helpers' chunks.
        let first = catch_unwind(AssertUnwindSafe(first));
        job.work();
        lock(&self.shared.jobs).retain(|j| !Arc::ptr_eq(j, &job));
        if let Some(panic) = job.wait() {
            resume_unwind(panic);
        }
        first.unwrap_or_else(|panic| resume_unwind(panic))
    }
}

/// One window's chunks on offer.
struct Job {
    /// The offering thread's task, lifetime erased (see [`Pool::run`]).
    task: *const Task<'static>,
    /// One past the last chunk.
    end: usize,
    /// Chunks on offer.
    total: usize,
    /// The next unclaimed chunk. It only hands out indices: the task's
    /// inputs reach a helper through the `jobs` lock and its outputs come
    /// back through `state`, so `Relaxed` suffices.
    next: AtomicUsize,
    state: Mutex<JobState>,
    /// Signalled when the last chunk finishes.
    finished: Condvar,
}

// SAFETY: `task` points at a `Sync` closure that outlives every call made
// through it (see `Pool::run`); everything else is `Send + Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

#[derive(Default)]
struct JobState {
    /// Chunks finished, whether they returned or panicked.
    done: usize,
    /// The first panic a chunk raised.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.end
    }

    /// Claims and runs chunks until none is left, catching panics.
    fn work(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.end {
                return;
            }
            // SAFETY: chunk `c` is claimed and unfinished, so the offering
            // thread is still inside `Pool::run` and `task` is live.
            let task = unsafe { &*self.task };
            let result = catch_unwind(AssertUnwindSafe(|| task(c)));
            let mut state = lock(&self.state);
            state.done += 1;
            if let Err(panic) = result {
                state.panic.get_or_insert(panic);
            }
            if state.done == self.total {
                self.finished.notify_all();
            }
        }
    }

    /// Blocks until every chunk finished; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = lock(&self.state);
        while state.done < self.total {
            state = self
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    }
}

/// Locks `m`, ignoring poison. Only a chunk slot can be poisoned, by a
/// model that panicked while the chunk was costed (no other lock is held
/// while a task runs), and every slot is cleared before it is costed
/// again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn on_helper() -> bool {
        thread::current()
            .name()
            .is_some_and(|n| n.starts_with(COST_THREAD_PREFIX))
    }

    /// Runs 32 chunks whose first outlasts a wake-up, so the rest are
    /// offered to the pool. With helpers, the calling thread's later
    /// chunks wait (up to 10 s) until a helper has started one, which
    /// forces the hand-off instead of hoping for it; `helper_chunk` runs
    /// in every chunk a helper takes. Returns how often each chunk ran.
    fn run_offered(helper_chunk: impl Fn() + Sync) -> Vec<usize> {
        let runs: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let started = (Mutex::new(false), Condvar::new());
        let helpers = pool().helpers;
        let task = |c: usize| {
            runs[c].fetch_add(1, Ordering::Relaxed);
            if c == 0 {
                let t = Instant::now();
                while t.elapsed() < 10 * WAKE_UP {
                    std::hint::spin_loop();
                }
            } else if on_helper() {
                *lock(&started.0) = true;
                started.1.notify_all();
                helper_chunk();
            } else if helpers > 0 {
                let (seen, timeout) = started
                    .1
                    .wait_timeout_while(lock(&started.0), Duration::from_secs(10), |s| !*s)
                    .unwrap();
                assert!(*seen && !timeout.timed_out(), "no cost helper took a chunk");
            }
        };
        run_chunks(runs.len(), &task, false, CHUNK_PAIRS);
        runs.iter().map(|r| r.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn slow_chunks_are_shared_with_the_helpers_and_each_runs_once() {
        let helper_chunks = AtomicUsize::new(0);
        let runs = run_offered(|| {
            helper_chunks.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs, vec![1; 32]);
        let shared = helper_chunks.load(Ordering::Relaxed) > 0;
        assert_eq!(shared, pool().helpers > 0);
    }

    #[test]
    fn a_helper_panic_resumes_on_the_calling_thread_and_the_helper_lives_on() {
        let result = catch_unwind(|| run_offered(|| panic!("a chunk panicked on a helper")));
        if pool().helpers > 0 {
            let payload = result.expect_err("the helper's panic was lost");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"a chunk panicked on a helper")
            );
        }
        // The helpers survived: the next offer is taken up again.
        assert_eq!(run_offered(|| {}), vec![1; 32]);
    }

    #[test]
    fn a_slow_prediction_offers_a_two_chunk_window_before_its_first_chunk() {
        let helpers = pool().helpers;
        let helper_took_1 = (Mutex::new(false), Condvar::new());
        let task = |c: usize| {
            if c == 1 {
                *lock(&helper_took_1.0) = on_helper();
                helper_took_1.1.notify_all();
            } else if helpers > 0 {
                // Offered after chunk 0, chunk 1 would still be waiting.
                let (took, timeout) = helper_took_1
                    .1
                    .wait_timeout_while(lock(&helper_took_1.0), Duration::from_secs(10), |t| !*t)
                    .unwrap();
                assert!(
                    *took && !timeout.timed_out(),
                    "chunk 1 was not offered first"
                );
            }
        };
        run_chunks(2, &task, true, CHUNK_PAIRS);
        assert_eq!(*lock(&helper_took_1.0), helpers > 0);
    }

    #[test]
    fn fast_chunks_stay_on_the_calling_thread() {
        let caller = thread::current().id();
        let elsewhere = AtomicBool::new(false);
        let task = |_: usize| {
            if thread::current().id() != caller {
                elsewhere.store(true, Ordering::Relaxed);
            }
        };
        assert!(!run_chunks(32, &task, false, CHUNK_PAIRS));
        assert!(!elsewhere.load(Ordering::Relaxed));
    }
}
