//! gt-par: a small deterministic chunked thread pool for host-side work.
//!
//! The paper's preprocessing pipeline (S/R/K/T, §II-B) and the DES scheduler
//! model host subtasks spread across cores; this crate is the real-thread
//! counterpart. It is deliberately tiny — zero external dependencies, like
//! gt-telemetry — and built around one idea: **work is split into chunks
//! whose geometry never depends on the thread count**, workers claim chunks
//! via an atomic cursor (self-scheduling), and results are combined in chunk
//! order — after the round ([`ThreadPool::map_chunks`]) or during it, on the
//! calling thread, while later chunks are still being mapped
//! ([`ThreadPool::map_fold_ordered`]). Each output element is produced by
//! exactly one worker running serial code over its chunk, so `GT_THREADS=N`
//! is bit-identical to `GT_THREADS=1` by construction — no reduction-order
//! nondeterminism to paper over. docs/parallelism.md describes the contract.
//!
//! Workers are persistent: a pool spawns `workers - 1` threads at
//! construction and broadcasts each parallel operation to them through a
//! condvar (the calling thread participates as worker 0). Preprocessing
//! issues several pool operations per batch over sub-millisecond regions;
//! spawning threads per operation costs more than the regions themselves,
//! parking on a condvar costs a wakeup (~µs).
//!
//! Telemetry: in parallel mode each worker that claims work opens a span on
//! its own `cpu-worker-{i}` track, so a Perfetto trace shows the real
//! overlap next to the DES-predicted schedule (Fig 13/14-style lanes).

use std::any::Any;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Environment variable selecting the worker count for [`ThreadPool::global`].
pub const THREADS_ENV: &str = "GT_THREADS";

/// Busy-wait rounds the folding caller of [`ThreadPool::map_fold_ordered`]
/// spins on an unfinished chunk before it starts yielding its core, so that
/// a pool wider than the machine cannot starve the worker it waits on.
const SPINS_BEFORE_YIELD: u32 = 64;

/// A fixed-width pool of self-scheduling workers. `workers - 1` persistent
/// threads park on a condvar between operations; the calling thread is
/// always worker 0. Closures may capture locals by reference: the caller
/// blocks until every worker has finished the operation, so borrows cannot
/// outlive it (the lifetime erasure this requires is contained in
/// `ThreadPool::run_parallel`). A panic in a chunk stops the worker that
/// ran it, the others finish the round, and the caller then panics with the
/// payload of the lowest-numbered worker that failed; the pool stays usable.
///
/// Operations on one pool are serialized: a second thread calling into the
/// pool while an operation is in flight waits for it to finish. A worker
/// that re-enters the pool from inside an operation (nested parallelism)
/// runs its region inline instead of deadlocking.
#[derive(Debug)]
pub struct ThreadPool {
    workers: usize,
    /// Broadcast state; `None` for single-worker pools, which never spawn.
    shared: Option<Arc<Shared>>,
    /// Serializes whole operations (publish → work → drain).
    op_lock: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Split `total` items into chunks of `chunk` items; the tail chunk may be
/// short. Chunk geometry is a pure function of (total, chunk) — never of the
/// worker count — which is what makes chunk-order combination deterministic.
pub fn num_chunks(total: usize, chunk: usize) -> usize {
    total.div_ceil(chunk.max(1))
}

/// The item range of chunk `i`.
pub fn chunk_range(total: usize, chunk: usize, i: usize) -> Range<usize> {
    let chunk = chunk.max(1);
    let lo = i * chunk;
    (lo.min(total))..((lo + chunk).min(total))
}

/// One broadcast round's task: the pool-side loop bound to a specific
/// operation's cursor and closure, called with the worker index.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}
// Safety: the pointee is Sync, and the publishing caller keeps it alive
// until every worker has drained (run_parallel blocks on `active == 0`).
unsafe impl Send for Job {}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new round.
    work_cv: Condvar,
    /// The caller waits here for `active` to drain to zero.
    done_cv: Condvar,
}

struct PoolState {
    /// Round number; bumped per publish so sleepy workers can tell a new
    /// job from the one they just finished.
    seq: u64,
    job: Option<Job>,
    /// Spawned workers still running the current round.
    active: usize,
    /// The lowest-numbered spawned worker whose job panicked this round,
    /// with its payload.
    panicked: Option<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

std::thread_local! {
    /// Set while this thread executes a pool job; a nested pool call from
    /// such a thread runs inline (serial) instead of publishing a round it
    /// would then deadlock waiting on.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl ThreadPool {
    /// A pool with exactly `workers` workers (clamped to at least 1);
    /// spawns `workers - 1` persistent threads.
    pub fn new(workers: usize) -> ThreadPool {
        let workers = workers.max(1);
        if workers == 1 {
            return ThreadPool {
                workers,
                shared: None,
                op_lock: Mutex::new(()),
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                seq: 0,
                job: None,
                active: 0,
                panicked: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gt-par-{w}"))
                    .spawn(move || worker_thread(w, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            workers,
            shared: Some(shared),
            op_lock: Mutex::new(()),
            handles,
        }
    }

    /// The process-wide pool: `GT_THREADS` if set (0 or unparsable falls
    /// back), else the machine's available parallelism.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(threads_from_env()))
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A pool with a `'static` lifetime (leaked allocation). Kernels hold
    /// `&'static ThreadPool` so determinism tests can pin explicit widths;
    /// this is the constructor those tests use. The pool's worker threads
    /// stay parked for the life of the process.
    pub fn leaked(workers: usize) -> &'static ThreadPool {
        Box::leak(Box::new(ThreadPool::new(workers)))
    }

    /// Run `f(chunk_index, item_range)` for every chunk of `0..total`.
    /// Workers claim chunk indices from an atomic cursor; with one worker
    /// (or one chunk) the loop runs inline on the calling thread. `f` must
    /// not assume any relationship between chunk index and worker identity.
    pub fn for_each_chunk<F>(&self, label: &'static str, total: usize, chunk: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let n = num_chunks(total, chunk);
        if n == 0 {
            return;
        }
        if self.workers == 1 || n == 1 || IN_POOL_JOB.with(|c| c.get()) {
            let _span = gt_telemetry::global().span("cpu-worker-0", label);
            for i in 0..n {
                f(i, chunk_range(total, chunk, i));
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let task = |w| worker_loop(w, label, &cursor, n, total, chunk, &f);
        self.run_parallel(&task, &mut || task(0));
    }

    /// Broadcast `task` to the spawned workers (indices 1..workers), run
    /// `own` on the calling thread as worker 0, and block until all have
    /// returned.
    fn run_parallel(&self, task: &(dyn Fn(usize) + Sync), own: &mut dyn FnMut()) {
        let op = self.op_lock.lock().unwrap();
        let shared = self.shared.as_ref().expect("multi-worker pool");
        // Safety: we block below until every worker finished the round, so
        // the erased borrow strictly outlives all uses.
        let job = Job {
            f: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    task,
                )
            },
        };
        {
            let mut st = shared.state.lock().unwrap();
            debug_assert!(st.job.is_none() && st.active == 0, "round already active");
            st.job = Some(job);
            st.active = self.handles.len();
            st.seq += 1;
            shared.work_cv.notify_all();
        }
        IN_POOL_JOB.with(|c| c.set(true));
        let own = catch_unwind(AssertUnwindSafe(own));
        IN_POOL_JOB.with(|c| c.set(false));
        // Wait even when `own` panicked: the workers still hold the erased
        // borrow.
        let mut st = shared.state.lock().unwrap();
        while st.active > 0 {
            st = shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let worker_panic = st.panicked.take().map(|(_, payload)| payload);
        // Unlock before unwinding so neither mutex is poisoned.
        drop(st);
        drop(op);
        if let Some(payload) = own.err().or(worker_panic) {
            resume_unwind(payload);
        }
    }

    /// Map every chunk of `0..total` through `f` and return the results in
    /// **chunk order** (not completion order) — the deterministic reduction
    /// point for parallel producers.
    pub fn map_chunks<T, F>(&self, label: &'static str, total: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let n = num_chunks(total, chunk);
        let slots = SlotVec::new(n);
        self.for_each_chunk(label, total, chunk, |i, range| {
            // SAFETY: `for_each_chunk` hands out each chunk index exactly
            // once, so slot `i` has a unique writer.
            unsafe { slots.publish(i, f(i, range)) };
        });
        slots.into_vec()
    }

    /// Map every chunk of `0..total` through `map` on the pool and fold the
    /// results on the calling thread **in chunk order**, `fold(0, ..)`,
    /// `fold(1, ..)`, …, while later chunks are still being mapped. The
    /// output therefore equals [`ThreadPool::map_chunks`] followed by a
    /// serial fold, bit for bit, at every width — but on a multi-worker
    /// pool the fold overlaps the map instead of waiting behind it, and each
    /// chunk's result is dropped as soon as it is folded.
    ///
    /// Spawned workers only map. The calling thread (worker 0) owns the
    /// fold: it folds chunk `next` once that chunk is mapped, claims and
    /// maps a chunk itself while it is not, and waits (spinning, then
    /// yielding) only when nothing is left to claim. `fold` therefore needs
    /// neither `Send` nor `Sync`. With one worker, one chunk, or inside a
    /// pool job, it runs inline: every `map` in chunk order, then every
    /// `fold`, as `map_chunks` and a serial fold would. A panic in `map` or
    /// `fold` reaches the caller as [`ThreadPool::for_each_chunk`]'s do, and
    /// the pool stays usable.
    ///
    /// Telemetry: spawned workers open one `map_label` span each, as in
    /// `for_each_chunk`. Worker 0 holds one `fold_label` span on
    /// `cpu-worker-0` for the whole call, with a `map_label` span nested in
    /// it for each chunk it maps itself, so the fold span's exclusive time
    /// is folding and waiting.
    pub fn map_fold_ordered<T, M, F>(
        &self,
        map_label: &'static str,
        fold_label: &'static str,
        total: usize,
        chunk: usize,
        map: M,
        mut fold: F,
    ) where
        T: Send,
        M: Fn(usize, Range<usize>) -> T + Sync,
        F: FnMut(usize, T),
    {
        let n = num_chunks(total, chunk);
        let telemetry = gt_telemetry::global();
        let _fold_span = telemetry.span("cpu-worker-0", fold_label);
        let map_on_caller = |i: usize| {
            let _span = telemetry.span("cpu-worker-0", map_label);
            map(i, chunk_range(total, chunk, i))
        };
        if self.workers == 1 || n <= 1 || IN_POOL_JOB.with(|c| c.get()) {
            // Serial: every map, then every fold. With no other core to hide
            // the fold behind, alternating them per chunk only makes each
            // evict the other's working set (the sampler measured ≈ 4%
            // slower that way).
            let mapped: Vec<T> = (0..n).map(map_on_caller).collect();
            for (i, value) in mapped.into_iter().enumerate() {
                fold(i, value);
            }
            return;
        }
        let slots = SlotVec::new(n);
        let cursor = AtomicUsize::new(0);
        // Set by a panicking map or fold so that the folding caller stops
        // waiting for a chunk that will never be published, and the
        // mappers stop mapping. It publishes no data (the panic payload
        // travels through the pool's state mutex), so Relaxed suffices.
        let abort = AtomicBool::new(false);
        let publish = |i: usize, range: Range<usize>| {
            if abort.load(Ordering::Relaxed) {
                return;
            }
            let _unwinding = AbortOnUnwind(&abort);
            // SAFETY: the cursor hands out each chunk index exactly once,
            // so slot `i` has a unique writer.
            unsafe { slots.publish(i, map(i, range)) };
        };
        let spawned = |w| worker_loop(w, map_label, &cursor, n, total, chunk, &publish);
        self.run_parallel(&spawned, &mut || {
            let _unwinding = AbortOnUnwind(&abort);
            let (mut next, mut claimed, mut spins) = (0, 0u64, 0u32);
            while next < n {
                // SAFETY: this closure is the only reader of the slots.
                if let Some(value) = unsafe { slots.take(next) } {
                    fold(next, value);
                    next += 1;
                    spins = 0;
                    continue;
                }
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i < n {
                    claimed += 1;
                    // SAFETY: as in `publish`; index `i` came from the cursor.
                    unsafe { slots.publish(i, map_on_caller(i)) };
                } else if spins < SPINS_BEFORE_YIELD {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            count_claims(&telemetry, claimed);
        });
    }

    /// Run `f(chunk_index, chunk_slice)` over `data.chunks_mut(chunk)`, in
    /// parallel. Chunk `i` covers `data[i*chunk .. (i+1)*chunk]`; slices are
    /// disjoint, so each element has a unique writer.
    pub fn for_each_chunk_mut<T, F>(&self, label: &'static str, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let total = data.len();
        let base = SendPtr(data.as_mut_ptr());
        self.for_each_chunk(label, total, chunk, |i, range| {
            // Safety: ranges from `chunk_range` are disjoint across chunk
            // indices and each index is claimed exactly once, so this
            // reconstructs non-overlapping subslices of `data`.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
            f(i, slice);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().unwrap().shutdown = true;
            shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A spawned worker's park-run loop: wait for a round it hasn't run yet,
/// run it, report drained (and a panic, if the job raised one), repeat
/// until shutdown.
fn worker_thread(w: usize, shared: &Shared) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != last_seq {
                    last_seq = st.seq;
                    break st.job.expect("published round has a job");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        IN_POOL_JOB.with(|c| c.set(true));
        // Safety: the publisher blocks until `active` drains, keeping the
        // closure alive for the duration of this call.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.f)(w) }));
        IN_POOL_JOB.with(|c| c.set(false));
        let mut st = shared.state.lock().unwrap();
        if let Err(payload) = outcome {
            if st.panicked.as_ref().is_none_or(|&(first, _)| w < first) {
                st.panicked = Some((w, payload));
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// One worker's claim loop, wrapped in a per-worker telemetry span so a
/// Perfetto trace shows real core occupancy on `cpu-worker-{w}` tracks.
/// Workers that arrive after the cursor is exhausted emit nothing.
fn worker_loop<F>(
    w: usize,
    label: &'static str,
    cursor: &AtomicUsize,
    n: usize,
    total: usize,
    chunk: usize,
    f: &F,
) where
    F: Fn(usize, Range<usize>) + Sync,
{
    let mut i = cursor.fetch_add(1, Ordering::Relaxed);
    if i >= n {
        return;
    }
    let telemetry = gt_telemetry::global();
    let span = telemetry.span(format!("cpu-worker-{w}"), label);
    let mut claimed = 0u64;
    while i < n {
        claimed += 1;
        f(i, chunk_range(total, chunk, i));
        i = cursor.fetch_add(1, Ordering::Relaxed);
    }
    drop(span);
    count_claims(&telemetry, claimed);
}

fn count_claims(telemetry: &gt_telemetry::Telemetry, claimed: u64) {
    telemetry
        .counter(
            "gt_par_chunks_claimed_total",
            "chunks claimed by pool workers",
        )
        .add(claimed);
}

/// Sets its flag if dropped while its thread unwinds: a mapper or folder
/// that panics raises the round's abort flag on the way out.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Worker count from `GT_THREADS`, defaulting to available parallelism.
fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One result slot per chunk, each written once by the worker that mapped
/// the chunk and then flagged ready.
struct SlotVec<T> {
    slots: Vec<UnsafeCell<Option<T>>>,
    ready: Vec<AtomicBool>,
}

// SAFETY: a slot is written by exactly one thread (the chunk cursor hands
// each index out once) and read either by the one folding thread after it
// observes the slot's ready flag (Release store in `publish`, Acquire load
// in `take`), or by the caller after the round has joined. Values move
// between threads, hence `T: Send`; no `&T` is ever shared.
unsafe impl<T: Send> Sync for SlotVec<T> {}

impl<T> SlotVec<T> {
    fn new(n: usize) -> SlotVec<T> {
        SlotVec {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
            ready: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Store chunk `i`'s result and flag it ready.
    ///
    /// # Safety
    /// Each index must be published by at most one thread, at most once.
    unsafe fn publish(&self, i: usize, value: T) {
        *self.slots[i].get() = Some(value);
        self.ready[i].store(true, Ordering::Release);
    }

    /// Take chunk `i`'s result if it has been published (and not yet taken).
    ///
    /// # Safety
    /// Only one thread may call `take` during a round.
    unsafe fn take(&self, i: usize) -> Option<T> {
        if self.ready[i].load(Ordering::Acquire) {
            (*self.slots[i].get()).take()
        } else {
            None
        }
    }

    fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .map(|s| s.into_inner().expect("every chunk produced a result"))
            .collect()
    }
}

/// A raw pointer that may cross thread boundaries (the disjointness argument
/// lives at the use site).
struct SendPtr<T>(*mut T);
unsafe impl<T> Sync for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    // Accessor (not field access) so closures capture the whole `SendPtr`,
    // which is Sync — edition-2021 disjoint capture would otherwise grab
    // the raw pointer field itself.
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_geometry_is_exact() {
        assert_eq!(num_chunks(10, 4), 3);
        assert_eq!(chunk_range(10, 4, 0), 0..4);
        assert_eq!(chunk_range(10, 4, 2), 8..10);
        assert_eq!(num_chunks(0, 4), 0);
        assert_eq!(num_chunks(4, 0), 4); // chunk clamps to 1
    }

    #[test]
    fn map_chunks_returns_chunk_order() {
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let out = pool.map_chunks("test", 100, 7, |i, range| (i, range.start, range.end));
            assert_eq!(out.len(), num_chunks(100, 7));
            for (i, &(ci, lo, hi)) in out.iter().enumerate() {
                assert_eq!(ci, i);
                assert_eq!(lo..hi, chunk_range(100, 7, i));
            }
        }
    }

    #[test]
    fn for_each_chunk_mut_writes_every_element_once() {
        for workers in [1, 3, 8] {
            let pool = ThreadPool::new(workers);
            let mut data = vec![0u32; 1000];
            pool.for_each_chunk_mut("test", &mut data, 13, |_, chunk| {
                for x in chunk {
                    *x += 1;
                }
            });
            assert!(data.iter().all(|&x| x == 1));
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // The determinism contract: same chunk size, any worker count,
        // bitwise-equal output.
        let compute = |pool: &ThreadPool| {
            pool.map_chunks("test", 997, 64, |i, range| {
                range
                    .map(|x| (x as u64).wrapping_mul(i as u64 + 1))
                    .sum::<u64>()
            })
        };
        let serial = compute(&ThreadPool::new(1));
        for workers in [2, 4, 8] {
            assert_eq!(serial, compute(&ThreadPool::new(workers)));
        }
    }

    #[test]
    fn pool_survives_many_consecutive_operations() {
        // Persistent workers must drain and re-arm cleanly round after round.
        let pool = ThreadPool::new(4);
        for round in 0..200usize {
            let sum: u64 = pool
                .map_chunks("test", 64, 8, |i, range| (i + range.start + round) as u64)
                .into_iter()
                .sum();
            assert!(sum > 0);
        }
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let pool = ThreadPool::leaked(4);
        let mut data = vec![0u64; 256];
        pool.for_each_chunk_mut("outer", &mut data, 32, |_, chunk| {
            // A worker re-entering the pool runs this region serially.
            let inner = pool.map_chunks("inner", chunk.len(), 8, |_, r| r.len() as u64);
            let total: u64 = inner.into_iter().sum();
            for x in chunk.iter_mut() {
                *x = total;
            }
        });
        assert!(data.iter().all(|&x| x == 32));
    }

    #[test]
    fn concurrent_callers_are_serialized() {
        let pool = ThreadPool::leaked(3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let out = pool.map_chunks("test", 40, 4, |i, _| i);
                        assert_eq!(out, (0..10).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_chunk_fails_the_caller_and_leaves_the_pool_usable() {
        for workers in [1, 2, 4] {
            let pool = ThreadPool::new(workers);
            for panic_on_caller in [true, false] {
                // One chunk per worker: none leaves its chunk before every
                // worker holds one, so both sides of the pool run a chunk.
                let all_claimed = std::sync::Barrier::new(workers);
                let caller = std::thread::current().id();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.for_each_chunk("test", workers, 1, |i, _| {
                        all_claimed.wait();
                        let on_caller = std::thread::current().id() == caller;
                        if on_caller == panic_on_caller || workers == 1 {
                            panic!("chunk {i}");
                        }
                    })
                }));
                let payload = outcome.expect_err("the panic reaches the caller");
                let message = payload.downcast_ref::<String>().expect("panic! message");
                assert!(message.starts_with("chunk "), "{message}");
                let clean = pool.map_chunks("test", 40, 4, |i, _| i);
                assert_eq!(clean, (0..10).collect::<Vec<_>>());
            }
        }
    }

    /// `map_chunks` followed by a serial fold: what `map_fold_ordered`
    /// must equal at every width.
    fn fold_after_map(pool: &ThreadPool, total: usize, chunk: usize) -> Vec<(usize, u64)> {
        let mapped = pool.map_chunks("test", total, chunk, chunk_digest);
        mapped.into_iter().enumerate().collect()
    }

    fn chunk_digest(i: usize, range: Range<usize>) -> u64 {
        range.fold(i as u64, |h, x| {
            (h ^ x as u64).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn map_fold_ordered_equals_map_then_serial_fold() {
        let pools = [1, 2, 4].map(ThreadPool::new);
        gt_sim::prop::check("map_fold_ordered", 64, |g| {
            let total = g.range(0..1500);
            let chunk = g.range(1..120);
            // Sleep-jittered map bodies: about a quarter of the chunks stall
            // up to 100 µs, so chunks finish out of order.
            let jitter = g.vec(0..64, |g| g.below(4) == 0);
            for pool in &pools {
                let mut folded = Vec::new();
                pool.map_fold_ordered(
                    "test",
                    "test.fold",
                    total,
                    chunk,
                    |i, range| {
                        if jitter.get(i % jitter.len().max(1)) == Some(&true) {
                            std::thread::sleep(std::time::Duration::from_micros(
                                (i as u64 * 37) % 100,
                            ));
                        }
                        chunk_digest(i, range)
                    },
                    |i, value| folded.push((i, value)),
                );
                assert_eq!(
                    folded,
                    fold_after_map(pool, total, chunk),
                    "width {}",
                    pool.workers()
                );
            }
        });
    }

    #[test]
    fn map_fold_ordered_runs_inline_inside_a_pool_job() {
        let pool = ThreadPool::leaked(4);
        pool.for_each_chunk("outer", 8, 1, |_, _| {
            let here = std::thread::current().id();
            let mut order = Vec::new();
            pool.map_fold_ordered(
                "inner",
                "inner.fold",
                100,
                7,
                |i, _| {
                    assert_eq!(std::thread::current().id(), here, "nested map left its job");
                    i
                },
                |i, mapped| {
                    assert_eq!(i, mapped);
                    order.push(i);
                },
            );
            assert_eq!(order, (0..num_chunks(100, 7)).collect::<Vec<_>>());
        });
    }

    #[test]
    fn map_fold_ordered_panics_reach_the_caller_and_leave_the_pool_usable() {
        #[derive(Clone, Copy, Debug)]
        enum Fault {
            MapOnCaller,
            MapOnSpawned,
            Fold,
        }
        for workers in [1, 2, 4] {
            let pool = ThreadPool::new(workers);
            for fault in [Fault::MapOnCaller, Fault::MapOnSpawned, Fault::Fold] {
                // One chunk per worker, each held until every worker holds
                // one, so both the caller and the spawned workers map.
                let all_claimed = std::sync::Barrier::new(workers);
                let caller = std::thread::current().id();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.map_fold_ordered(
                        "test",
                        "test.fold",
                        workers,
                        1,
                        |i, _| {
                            if workers > 1 {
                                all_claimed.wait();
                            }
                            let on_caller = std::thread::current().id() == caller;
                            let panics = match fault {
                                Fault::MapOnCaller => on_caller,
                                Fault::MapOnSpawned => !on_caller || workers == 1,
                                Fault::Fold => false,
                            };
                            if panics {
                                panic!("map {i}");
                            }
                        },
                        |i, ()| {
                            if let Fault::Fold = fault {
                                panic!("fold {i}");
                            }
                        },
                    )
                }));
                let payload = outcome.expect_err("the panic reaches the caller");
                let message = payload.downcast_ref::<String>().expect("panic! message");
                let expected = if let Fault::Fold = fault {
                    "fold "
                } else {
                    "map "
                };
                assert!(message.starts_with(expected), "{fault:?}: {message}");
                let mut next = Vec::new();
                pool.map_fold_ordered("test", "test.fold", 40, 4, |i, _| i, |_, i| next.push(i));
                assert_eq!(next, (0..10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn global_pool_has_at_least_one_worker() {
        assert!(ThreadPool::global().workers() >= 1);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        pool.for_each_chunk("test", 0, 8, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        let out: Vec<usize> = pool.map_chunks("test", 0, 8, |i, _| i);
        assert!(out.is_empty());
    }
}
