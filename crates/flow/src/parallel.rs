//! Lock-free multithreaded push-relabel, after Hong & He, *"An Asynchronous
//! Multithreaded Algorithm for the Maximum Network Flow Problem with
//! Nonblocking Global Relabeling Heuristic"* (IEEE TPDS 2011) — the
//! parallelization the paper adopts for its parallel integrated algorithm
//! (Section V).
//!
//! No locks or barriers protect push/relabel operations; the only shared
//! mutable state consists of atomic per-edge flows, per-vertex excesses and
//! heights, and per-worker lock-free work rings. The key safety arguments:
//!
//! * A vertex is *owned* by at most one thread at a time (a compare-exchange
//!   on its `queued` flag decides ownership), so its height has a single
//!   writer and its excess a single decrementer.
//! * Pushes on a forward edge are performed only by the owner of its source
//!   vertex; a concurrent push on the paired reverse edge can only *increase*
//!   the forward residual, so a residual observed before `fetch_add` never
//!   overshoots.
//! * Heights read during the lowest-neighbour scan may be stale; following
//!   Hong & He, the push rule `h(u) > h(v̂)` (rather than exact equality)
//!   remains correct because heights only increase.
//!
//! # Work stealing
//!
//! Each worker owns one MPMC ring ([`crate::mpmc::BoundedQueue`]). A worker
//! enqueues the vertices it activates into its *own* ring — newly activated
//! vertices are usually neighbours of what it just discharged, so the
//! owner-first policy keeps each thread walking a warm region of the arena.
//! A worker whose ring runs dry steals from its peers in round-robin order
//! (`(id + k) % threads`). Ownership of a vertex is still decided by the
//! `queued` CAS, so stealing changes only *which* thread discharges a
//! vertex, never whether it is discharged twice.
//!
//! # Rounds on a shared pool
//!
//! A run alternates a global relabel with a round of lock-free
//! discharging over the graph's own CSR arrays, borrowed for the run. A
//! round is one [`WorkerPool::run_tasks`] batch of `threads` closures —
//! closure `id` runs worker `id`, and the calling thread claims one like
//! any pool thread; one worker runs inline and spawns no thread. The
//! integrated retrieval driver (paper Algorithm 6) calls `resume` dozens
//! of times per query, so the pool is created **once per engine** and
//! shared across every shard and solve; the dispatch handshake uses a
//! mutex/condvar, but the push/relabel hot path remains lock-free as in
//! the paper.
//!
//! Excess stranded at the phase-1 height bound when the rounds end is
//! returned to the source by cancelling the flow that carried it in. A
//! sequential push-relabel pass runs only if a round makes no progress,
//! which a correct run never does.

use crate::graph::{ArenaIndex, EdgeId, FlowGraph, VertexId};
use crate::incremental::IncrementalMaxFlow;
use crate::mpmc::BoundedQueue;
use crate::push_relabel::PushRelabel;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Multithreaded push-relabel solver with the same incremental (`resume`)
/// interface as the sequential [`PushRelabel`].
///
/// Every run reads the topology straight from the graph it is handed, so
/// one engine may solve any sequence of graphs; capacities and flows may
/// change freely between `resume` calls.
#[derive(Debug)]
pub struct ParallelPushRelabel {
    /// Number of worker threads (the paper evaluates 2).
    pub threads: usize,
    excess: Vec<i64>,
    fixup: PushRelabel,
    pool: Option<WorkerPool>,
    /// Statistics from the most recent run.
    pub last_run: ParallelRunStats,
    /// Pushes across all runs (parallel phase + fixup), for
    /// [`IncrementalMaxFlow::op_counts`].
    total_pushes: u64,
    /// Relabels across all runs.
    total_relabels: u64,
}

/// Telemetry from one parallel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelRunStats {
    /// Pushes performed by the parallel phase (all threads).
    pub parallel_pushes: u64,
    /// Relabels performed by the parallel phase (all threads).
    pub parallel_relabels: u64,
    /// Pushes the sequential fixup pass had to perform (0 when the parallel
    /// phase fully converged).
    pub fixup_pushes: u64,
    /// Vertices popped from a peer's ring rather than the popper's own —
    /// how much the work-stealing policy actually rebalanced.
    pub steals: u64,
}

/// Shared state of one run, on the dispatching thread's stack. The
/// topology is the graph's own CSR arena, borrowed for the run;
/// push/relabel operations touch only the atomic fields — no locks.
/// Flows, capacities and excesses are held as `i64` regardless of the
/// arena's width: both widths widen losslessly, and one atomic layout
/// keeps the worker loop monomorphic.
#[derive(Debug)]
struct JobState<'g> {
    /// `adj[adj_start[v]..adj_start[v + 1]]` are the edge slots out of `v`.
    adj_start: &'g [u32],
    adj: &'g [u32],
    /// Target vertex per edge slot.
    head: &'g [u32],
    caps: Vec<i64>,
    flow: Vec<AtomicI64>,
    excess: Vec<AtomicI64>,
    height: Vec<AtomicU32>,
    queued: Vec<AtomicBool>,
    /// One work ring per worker; workers push to their own ring and steal
    /// from peers when theirs runs dry.
    queues: Vec<BoundedQueue>,
    /// Vertices queued or currently being discharged. Zero means quiescent.
    active: AtomicUsize,
    /// Set when a worker unwinds mid-round. Its vertex stays counted in
    /// `active`, so idle peers stop on this flag instead of waiting for a
    /// quiescence that never comes.
    aborted: AtomicBool,
    pushes: AtomicUsize,
    relabels: AtomicUsize,
    steals: AtomicUsize,
    s: usize,
    t: usize,
    height_cap: u32,
    /// Cumulative relabel count at which the current round is cut short
    /// and control returns to the global relabeler (periodic relabeling).
    relabel_limit: AtomicUsize,
}

impl<'g> JobState<'g> {
    /// Borrows `g`'s CSR arrays (the graph must be finalized) and copies
    /// its capacities and flows, plus `excess`, into the shared state.
    fn new<W: ArenaIndex>(
        g: &'g FlowGraph<W>,
        excess: &[i64],
        workers: usize,
        s: VertexId,
        t: VertexId,
    ) -> JobState<'g> {
        let (n, slots) = (g.num_vertices(), g.num_edge_slots());
        JobState {
            adj_start: g.csr_index(),
            adj: g.csr_list(),
            head: g.heads(),
            caps: (0..slots).map(|e| g.cap(e)).collect(),
            flow: (0..slots).map(|e| AtomicI64::new(g.flow(e))).collect(),
            excess: excess[..n].iter().map(|&x| AtomicI64::new(x)).collect(),
            height: (0..n).map(|_| AtomicU32::new(0)).collect(),
            queued: (0..n).map(|_| AtomicBool::new(false)).collect(),
            queues: (0..workers)
                .map(|_| BoundedQueue::with_capacity(n))
                .collect(),
            active: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            pushes: AtomicUsize::new(0),
            relabels: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            s,
            t,
            height_cap: n as u32,
            relabel_limit: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn out_edges(&self, v: usize) -> &'g [u32] {
        &self.adj[self.adj_start[v] as usize..self.adj_start[v + 1] as usize]
    }

    #[inline]
    fn residual(&self, e: EdgeId) -> i64 {
        self.caps[e] - self.flow[e].load(Ordering::SeqCst)
    }

    /// Enqueues `v` onto worker `id`'s ring if it is not already
    /// owned/queued and can still reach the sink in this round (height
    /// below the phase-1 boundary).
    fn try_enqueue(&self, v: usize, id: usize) {
        if v == self.s || v == self.t {
            return;
        }
        if self.height[v].load(Ordering::SeqCst) >= self.height_cap {
            return;
        }
        if self.queued[v]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.active.fetch_add(1, Ordering::SeqCst);
            // The queued-flag CAS bounds total ring occupancy at one slot
            // per vertex, so no ring is ever *logically* full — but the
            // ring's full check is a lap-behind test, not an occupancy
            // test: a consumer preempted between claiming a slot and
            // releasing it makes a push that laps the ring fail
            // transiently. Spin until the stalled consumer's release
            // store lands; panicking here would kill the worker while it
            // owns `v`, leaving `active` stuck positive and livelocking
            // its peers.
            while self.queues[id].push(v as u32).is_err() {
                std::hint::spin_loop();
            }
        }
    }

    /// Pops the next vertex for worker `id`: its own ring first, then each
    /// peer's in round-robin order.
    fn pop_for(&self, id: usize) -> Option<u32> {
        if let Some(v) = self.queues[id].pop() {
            return Some(v);
        }
        let t = self.queues.len();
        for k in 1..t {
            if let Some(v) = self.queues[(id + k) % t].pop() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(v);
            }
        }
        None
    }

    /// Fully discharges `v`. The caller owns `v` (its `queued` flag is set);
    /// `id` is the discharging worker, whose ring receives any vertices
    /// this discharge activates.
    fn discharge(&self, v: usize, id: usize) {
        let mut local_pushes = 0usize;
        loop {
            let ev = self.excess[v].load(Ordering::SeqCst);
            if ev <= 0 {
                break;
            }
            if self.relabels.load(Ordering::Relaxed) >= self.relabel_limit.load(Ordering::Relaxed) {
                break; // round budget exhausted; global relabel takes over
            }
            // Lowest residual neighbour (Hong & He).
            let mut best_edge = usize::MAX;
            let mut best_h = u32::MAX;
            // Height first: the height array is far smaller than cap/flow,
            // so the short-circuit skips most of the scattered residual
            // loads. Stale heights are already tolerated (Hong & He).
            for &e in self.out_edges(v) {
                let e = e as EdgeId;
                let h = self.height[self.head[e] as usize].load(Ordering::SeqCst);
                if h < best_h && self.residual(e) > 0 {
                    best_h = h;
                    best_edge = e;
                }
            }
            if best_edge == usize::MAX {
                break; // no residual edge: stranded (drained after the rounds)
            }
            let hv = self.height[v].load(Ordering::SeqCst);
            if hv > best_h {
                // Push.
                let delta = ev.min(self.residual(best_edge));
                if delta <= 0 {
                    continue; // residual consumed concurrently; rescan
                }
                let w = self.head[best_edge] as usize;
                self.flow[best_edge].fetch_add(delta, Ordering::SeqCst);
                self.flow[best_edge ^ 1].fetch_sub(delta, Ordering::SeqCst);
                self.excess[v].fetch_sub(delta, Ordering::SeqCst);
                self.excess[w].fetch_add(delta, Ordering::SeqCst);
                local_pushes += 1;
                self.try_enqueue(w, id);
            } else {
                // Relabel (single writer: the owner). The counter is kept
                // exact so the round budget check above sees it promptly.
                let new_h = best_h + 1;
                self.height[v].store(new_h, Ordering::SeqCst);
                self.relabels.fetch_add(1, Ordering::Relaxed);
                if new_h >= self.height_cap {
                    // Phase-1 boundary: a vertex lifted to the source
                    // height can no longer reach the sink this round; its
                    // excess is drained back after quiescence.
                    break;
                }
            }
        }
        if local_pushes > 0 {
            self.pushes.fetch_add(local_pushes, Ordering::Relaxed);
        }
    }
}

/// Flags the round aborted when the worker holding it unwinds.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// The lock-free worker loop for worker `id`: pop (own ring, then steal),
/// discharge, re-check, repeat until the whole job is quiescent (or a
/// peer panicked).
fn worker_loop(job: &JobState<'_>, id: usize) {
    let _abort = AbortOnUnwind(&job.aborted);
    loop {
        match job.pop_for(id) {
            Some(v) => {
                let v = v as usize;
                job.discharge(v, id);
                // Release ownership, then re-check: a concurrent push may
                // have raced with our final excess read (lost-wakeup guard).
                job.queued[v].store(false, Ordering::SeqCst);
                if job.excess[v].load(Ordering::SeqCst) > 0
                    && job.height[v].load(Ordering::SeqCst) < job.height_cap
                    && job.relabels.load(Ordering::Relaxed)
                        < job.relabel_limit.load(Ordering::Relaxed)
                {
                    job.try_enqueue(v, id);
                }
                job.active.fetch_sub(1, Ordering::SeqCst);
            }
            None => {
                if job.active.load(Ordering::SeqCst) == 0 || job.aborted.load(Ordering::SeqCst) {
                    break;
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }
}

/// Global relabeling between rounds (the blocking counterpart of Hong &
/// He's nonblocking heuristic): exact residual distances to `t` by reverse
/// BFS over the job's current (atomic) flow state. Vertices that cannot
/// reach `t` — including the source — get height `n`, the phase-1
/// boundary, stranding their excess for this round.
///
/// Returns the number of vertices (other than `s`/`t`) that hold excess
/// and can still reach the sink; the round only needs to run when this is
/// positive. The workers are parked while this runs, so plain stores into
/// the atomics are race-free.
#[allow(clippy::needless_range_loop)] // the loop indexes four parallel arrays
fn global_relabel(job: &JobState<'_>) -> usize {
    let n = job.height.len();
    // No excess anywhere means the BFS must count zero, and the heights
    // it would write are never observed after the round loop exits, so
    // the BFS is skipped.
    if !(0..n).any(|v| v != job.s && v != job.t && job.excess[v].load(Ordering::SeqCst) > 0) {
        return 0;
    }
    const UNSEEN: u32 = u32::MAX;
    let mut height = vec![UNSEEN; n];
    let mut queue = Vec::with_capacity(n);

    height[job.t] = 0;
    queue.push(job.t as u32);
    let mut head = 0;
    while head < queue.len() {
        let w = queue[head] as usize;
        head += 1;
        let dw = height[w];
        for &e in job.out_edges(w) {
            let e = e as EdgeId;
            let u = job.head[e] as usize;
            if height[u] == UNSEEN && job.residual(e ^ 1) > 0 && u != job.s {
                height[u] = dw + 1;
                queue.push(u as u32);
            }
        }
    }
    let mut reachable_excess = 0;
    for v in 0..n {
        let h = if height[v] == UNSEEN || v == job.s {
            n as u32
        } else {
            height[v]
        };
        job.height[v].store(h, Ordering::SeqCst);
        if v != job.s
            && v != job.t
            && h < job.height_cap
            && job.excess[v].load(Ordering::SeqCst) > 0
        {
            reachable_excess += 1;
        }
    }
    reachable_excess
}

/// Returns trapped excess to the source by cancelling the flow that
/// carried it in (the standard preflow-to-flow conversion, specialized to
/// direct cancellation walks). Every unit of excess strictly reduces total
/// flow mass, so the worklist terminates; cycles of flow are irrelevant
/// because only *incoming* flow of excess vertices is cancelled.
fn drain_trapped_excess<W: ArenaIndex>(
    g: &mut FlowGraph<W>,
    excess: &mut [i64],
    s: VertexId,
    t: VertexId,
) {
    let n = g.num_vertices();
    let mut worklist: Vec<VertexId> = (0..n)
        .filter(|&v| v != s && v != t && excess[v] > 0)
        .collect();
    while let Some(v) = worklist.pop() {
        while excess[v] > 0 {
            // Find an edge currently carrying flow into v: an odd (reverse)
            // slot out of v with positive residual, whose pair is the
            // forward edge (w -> v).
            let mut cancelled = false;
            for i in 0..g.out_edges(v).len() {
                let e = g.out_edges(v)[i] as EdgeId;
                if e % 2 == 1 && g.residual(e) > 0 {
                    let w = g.target(e);
                    let delta = excess[v].min(g.residual(e));
                    g.push(e, delta);
                    excess[v] -= delta;
                    if w == t {
                        excess[w] += delta; // cancelled a t-outflow
                    } else if w != s {
                        if excess[w] == 0 {
                            worklist.push(w);
                        }
                        excess[w] += delta;
                    }
                    cancelled = true;
                    break;
                }
            }
            assert!(
                cancelled,
                "vertex {v} holds excess but has no incoming flow to cancel"
            );
        }
    }
}

/// One claimable slot of a task batch: taken (and run) by exactly one
/// participant.
type TaskSlot = Mutex<Option<Box<dyn FnOnce() + Send>>>;

/// A one-shot batch of independent closures, claimed by an atomic cursor.
///
/// Task closures are lifetime-erased to `'static` by the dispatcher
/// ([`WorkerPool::run_tasks`]); soundness rests on the dispatcher blocking
/// until every task has been claimed, executed and dropped before it
/// returns — no borrow outlives the call that erased it.
struct TaskBatch {
    tasks: Vec<TaskSlot>,
    /// Next unclaimed task index. `fetch_add` claiming means each task runs
    /// exactly once, on whichever participant (worker or caller) gets there
    /// first.
    next: AtomicUsize,
    /// Panic payloads caught from tasks, re-raised on the dispatching
    /// thread once the batch drains (first payload wins).
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl std::fmt::Debug for TaskBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskBatch")
            .field("tasks", &self.tasks.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl TaskBatch {
    /// Claims and runs tasks until the cursor passes the end. Task panics
    /// are caught and stashed so one poisoned query cannot take down a
    /// worker thread (mirroring the engine's per-query containment).
    fn run_worker(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks.len() {
                break;
            }
            let task = self.tasks[i].lock().unwrap().take();
            if let Some(task) = task {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    self.panics.lock().unwrap().push(payload);
                }
            }
        }
    }
}

/// Persistent worker threads, parked between task batches.
///
/// The pool is cheaply cloneable — clones share the same threads — so one
/// pool created at engine build time serves every shard and every solve
/// for the engine's lifetime: no per-solve (or per-shard) thread spawns.
/// Its one job kind is a batch of closures ([`WorkerPool::run_tasks`]):
/// the fused batch-solve path schedules whole independent solves as
/// tasks, and a parallel push/relabel round is a batch of one worker loop
/// per ring. Batches from concurrent callers are serialized by a dispatch
/// lock.
///
/// The threads exit when the last clone is dropped.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    shared: Arc<PoolShared>,
    threads: usize,
    /// The host exposes a single hardware thread: a task-batch dispatch
    /// can only time-slice against the caller, so batches run inline.
    solo_host: bool,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Debug)]
struct PoolShared {
    /// Serializes `run_tasks` callers: one batch in flight at a time.
    dispatch: Mutex<()>,
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

#[derive(Debug)]
struct PoolState {
    batch: Option<Arc<TaskBatch>>,
    /// Pool threads that may still join the current batch: one per task
    /// beyond the caller's, up to the pool's size; closed once any
    /// participant has found every task claimed.
    openings: usize,
    /// Pool threads that joined the current batch and have not finished.
    running: usize,
    shutdown: bool,
}

impl WorkerPool {
    /// Spawns `threads` workers (minimum 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            dispatch: Mutex::new(()),
            state: Mutex::new(PoolState {
                batch: None,
                openings: 0,
                running: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let batch = {
                        let mut st = shared.state.lock().unwrap();
                        loop {
                            if st.shutdown {
                                return;
                            }
                            if st.openings > 0 {
                                st.openings -= 1;
                                st.running += 1;
                                break st.batch.clone().expect("an open batch");
                            }
                            st = shared.start.wait(st).unwrap();
                        }
                    };
                    batch.run_worker();
                    drop(batch);
                    let mut st = shared.state.lock().unwrap();
                    // Leaving the claiming loop means every task has been
                    // claimed: no thread that has not joined yet need join.
                    st.openings = 0;
                    st.running -= 1;
                    if st.running == 0 {
                        shared.done.notify_all();
                    }
                })
            })
            .collect();
        let solo_host = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        WorkerPool {
            inner: Arc::new(PoolInner {
                shared,
                threads,
                solo_host,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Number of worker threads in this pool.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs a batch of independent closures across the pool's workers,
    /// with the calling thread participating in the claiming loop; one
    /// pool thread is woken per remaining task, up to the pool's size.
    /// Blocks until every task has run; if any task panicked,
    /// the first panic payload is re-raised on the caller *after* the batch
    /// fully drains (the remaining tasks still run — one poisoned solve
    /// does not starve its batchmates).
    ///
    /// Tasks may borrow from the caller's stack (`'env`): the lifetime is
    /// erased internally, which is sound because this call does not return
    /// until every closure has been executed and dropped.
    ///
    /// Deadlock rule: a task must not dispatch onto the *same* pool (the
    /// dispatch lock is held for the whole batch). The fused batch-solve
    /// path therefore hands its per-lane solvers no pool — each fused
    /// solve runs sequentially inside its task.
    pub fn run_tasks<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.len() <= 1 || self.inner.solo_host {
            // One task, or one hardware thread, gains nothing from waking
            // parked workers: drain the batch on the caller with identical
            // semantics — every task runs, the first panic is re-raised
            // after the drain.
            let mut first_panic = None;
            for task in tasks {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            return;
        }
        let erased: Vec<TaskSlot> = tasks
            .into_iter()
            .map(|t| {
                // SAFETY: only the lifetime bound changes. Everything a task
                // borrows — its captures, and state they point into on the
                // dispatcher's stack, such as a push/relabel round's
                // `JobState` and the graph arrays it borrows — lives for
                // `'env`. This function does not return before the batch
                // is closed to new pool threads and every thread that
                // joined has left `run_worker` (the wait below), and by
                // then every task has been claimed, run and dropped; task
                // panics are caught inside `run_worker`, so no unwind
                // skips the wait. No erased borrow outlives `'env`.
                let t: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(t) };
                Mutex::new(Some(t))
            })
            .collect();
        let batch = Arc::new(TaskBatch {
            tasks: erased,
            next: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
        });
        let shared = &self.inner.shared;
        {
            let _dispatch = shared.dispatch.lock().unwrap();
            let openings = self.inner.threads.min(batch.tasks.len() - 1);
            {
                let mut st = shared.state.lock().unwrap();
                st.batch = Some(Arc::clone(&batch));
                st.openings = openings;
            }
            for _ in 0..openings {
                shared.start.notify_one();
            }
            batch.run_worker();
            let mut st = shared.state.lock().unwrap();
            // Every task is claimed: threads that have not joined need not.
            st.openings = 0;
            while st.running > 0 {
                st = shared.done.wait(st).unwrap();
            }
            st.batch = None;
        }
        let payload = batch.panics.lock().unwrap().drain(..).next();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl ParallelPushRelabel {
    /// Creates a solver with the given worker-thread count (minimum 1).
    /// With one thread each round runs its single worker inline — no pool,
    /// no handshake. With more, a private pool is spawned lazily on first
    /// use; engines that own a shared pool should use
    /// [`ParallelPushRelabel::with_pool`] instead.
    pub fn new(threads: usize) -> Self {
        ParallelPushRelabel {
            threads: threads.max(1),
            excess: Vec::new(),
            fixup: PushRelabel::new(),
            pool: None,
            last_run: ParallelRunStats::default(),
            total_pushes: 0,
            total_relabels: 0,
        }
    }

    /// Creates a solver that runs its rounds on an existing shared pool.
    /// The thread count is the pool's; no threads are ever spawned by the
    /// solver itself.
    pub fn with_pool(pool: WorkerPool) -> Self {
        let mut pr = ParallelPushRelabel::new(pool.threads());
        pr.pool = Some(pool);
        pr
    }

    /// Replaces the solver's pool with a shared one (adopting its thread
    /// count), dropping any private pool it may have spawned.
    pub fn set_pool(&mut self, pool: WorkerPool) {
        self.threads = pool.threads();
        self.pool = Some(pool);
    }

    fn ensure(&mut self, n: usize) {
        if self.excess.len() < n {
            self.excess.resize(n, 0);
        }
    }

    /// Runs one round: worker `id` discharges from ring `id` until the job
    /// is quiescent. One worker runs inline on the caller; more run as one
    /// pool task batch.
    fn run_round(&mut self, job: &JobState<'_>) {
        let threads = self.threads;
        if threads == 1 {
            return worker_loop(job, 0);
        }
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(threads));
        pool.run_tasks(
            (0..threads)
                .map(|id| Box::new(move || worker_loop(job, id)) as Box<dyn FnOnce() + Send + '_>)
                .collect(),
        );
    }

    fn run<W: ArenaIndex>(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        g.finalize();
        let n = g.num_vertices();
        self.ensure(n);

        // Saturate residual source edges (same init as the sequential
        // resume, Algorithm 5 lines 4-10) and cancel flow into the source
        // (circulation through s would otherwise pin capacity and break
        // label validity — see the sequential engine for the argument).
        for i in 0..g.out_edges(s).len() {
            let e = g.out_edges(s)[i] as EdgeId;
            let delta = g.residual(e);
            if delta > 0 {
                let v = g.target(e);
                g.push(e, delta);
                self.excess[v] += delta;
            }
        }
        self.excess[s] = 0;

        let job = JobState::new(g, &self.excess, self.threads, s, t);

        // Rounds: global relabel (exact heights), then lock-free
        // discharging until quiescent or the round's relabel budget runs
        // out; repeat while some excess can still reach the sink. The
        // budget plays the role of periodic global relabeling: it stops
        // vertices from climbing one level at a time once the capacity
        // they were aiming for is gone.
        let round_budget = (n).max(64);
        let mut stalled = false;
        loop {
            if global_relabel(&job) == 0 {
                break;
            }
            let pushes_before = job.pushes.load(Ordering::Relaxed);
            let relabels_before = job.relabels.load(Ordering::Relaxed);
            job.relabel_limit
                .store(relabels_before + round_budget, Ordering::Relaxed);
            let mut seeded = 0usize;
            for v in 0..n {
                if v != s
                    && v != t
                    && job.excess[v].load(Ordering::SeqCst) > 0
                    && job.height[v].load(Ordering::SeqCst) < job.height_cap
                {
                    job.queued[v].store(true, Ordering::Relaxed);
                    job.active.fetch_add(1, Ordering::Relaxed);
                    // Workers are parked between rounds and drain the rings
                    // before exiting, so seeding runs single-threaded
                    // against empty rings: unlike the racy push in
                    // `try_enqueue`, this one can never fail. Round-robin
                    // placement gives every worker a starting share.
                    job.queues[seeded % self.threads]
                        .push(v as u32)
                        .expect("vertex ring sized to hold every vertex");
                    seeded += 1;
                }
            }
            self.run_round(&job);
            let no_progress = job.pushes.load(Ordering::Relaxed) == pushes_before
                && job.relabels.load(Ordering::Relaxed) == relabels_before;
            if no_progress {
                // Cannot happen (a queued vertex always pushes or
                // relabels), but guard against silently looping forever.
                stalled = true;
                break;
            }
        }

        // Copy the atomic state back into the graph and solver; taking the
        // job apart ends its borrow of the graph's CSR arrays.
        let JobState {
            flow,
            excess,
            pushes,
            relabels,
            steals,
            ..
        } = job;
        for (e, f) in flow.into_iter().enumerate() {
            g.set_flow_raw(e, f.into_inner());
        }
        for (x, a) in self.excess.iter_mut().zip(excess) {
            *x = a.into_inner();
        }
        self.excess[s] = 0;
        self.last_run = ParallelRunStats {
            parallel_pushes: pushes.into_inner() as u64,
            parallel_relabels: relabels.into_inner() as u64,
            fixup_pushes: 0,
            steals: steals.into_inner() as u64,
        };
        self.total_pushes += self.last_run.parallel_pushes;
        self.total_relabels += self.last_run.parallel_relabels;

        if stalled {
            // Defensive fallback: finish with the (two-phase) sequential
            // engine rather than risk a silently suboptimal schedule.
            self.fixup.restore_excess(&self.excess[..n]);
            let before = self.fixup.stats.pushes;
            let relabels_before = self.fixup.stats.relabels;
            let val = self.fixup.resume(g, s, t);
            self.last_run.fixup_pushes = self.fixup.stats.pushes - before;
            self.total_pushes += self.last_run.fixup_pushes;
            self.total_relabels += self.fixup.stats.relabels - relabels_before;
            self.fixup.excess_snapshot_into(n, &mut self.excess);
            return val;
        }

        // Drain excess stranded at the phase-1 boundary back toward the
        // source by cancelling the inflow that carried it, leaving a valid
        // *flow* (conservation holds everywhere except s and t). The walks
        // follow existing flow edges directly — no height bookkeeping — so
        // this is linear in the stranded mass.
        drain_trapped_excess(g, &mut self.excess, s, t);
        self.excess[t]
    }

    /// Computes a maximum flow from scratch (zeroing any existing flow).
    pub fn max_flow<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        s: VertexId,
        t: VertexId,
    ) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        g.zero_flows();
        self.ensure(g.num_vertices());
        self.excess.iter_mut().for_each(|e| *e = 0);
        self.run(g, s, t)
    }

    /// Re-runs the engine conserving the flow currently in `g`.
    pub fn resume<W: ArenaIndex>(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        self.ensure(g.num_vertices());
        self.run(g, s, t)
    }

    /// Accumulated excess at `v`.
    pub fn excess(&self, v: VertexId) -> i64 {
        self.excess.get(v).copied().unwrap_or(0)
    }

    /// Overrides the excess at `v`.
    pub fn set_excess(&mut self, v: VertexId, x: i64) {
        self.ensure(v + 1);
        self.excess[v] = x;
    }

    /// Zeroes the excesses of vertices `0..n` (see
    /// [`IncrementalMaxFlow::reset_excess`]).
    pub fn reset_excess(&mut self, n: usize) {
        self.ensure(n);
        self.excess[..n].iter_mut().for_each(|e| *e = 0);
    }

    /// Cumulative `(pushes, relabels)` across all runs.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.total_pushes, self.total_relabels)
    }
}

impl<W: ArenaIndex> IncrementalMaxFlow<W> for ParallelPushRelabel {
    fn max_flow(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        ParallelPushRelabel::max_flow(self, g, s, t)
    }

    fn resume(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        ParallelPushRelabel::resume(self, g, s, t)
    }

    fn excess(&self, v: VertexId) -> i64 {
        ParallelPushRelabel::excess(self, v)
    }

    fn set_excess(&mut self, v: VertexId, x: i64) {
        ParallelPushRelabel::set_excess(self, v, x)
    }

    fn op_counts(&self) -> (u64, u64) {
        ParallelPushRelabel::op_counts(self)
    }

    fn reset_excess(&mut self, n: usize) {
        ParallelPushRelabel::reset_excess(self, n)
    }

    fn excess_snapshot_into(&self, n: usize, buf: &mut Vec<i64>) {
        crate::push_relabel::snapshot_into(&self.excess, n, buf);
    }

    fn restore_excess(&mut self, snap: &[i64]) {
        self.ensure(snap.len());
        self.excess[..snap.len()].copy_from_slice(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;
    use crate::validate::assert_valid_flow;

    fn clrs() -> (FlowGraph, VertexId, VertexId) {
        let mut g: FlowGraph = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 3, 12);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 4, 14);
        g.add_edge(3, 2, 9);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 3, 7);
        g.add_edge(4, 5, 4);
        (g, 0, 5)
    }

    #[test]
    fn clrs_single_thread() {
        let (mut g, s, t) = clrs();
        assert_eq!(ParallelPushRelabel::new(1).max_flow(&mut g, s, t), 23);
        assert_valid_flow(&g, s, t);
    }

    #[test]
    fn clrs_two_threads() {
        let (mut g, s, t) = clrs();
        assert_eq!(ParallelPushRelabel::new(2).max_flow(&mut g, s, t), 23);
        assert_valid_flow(&g, s, t);
    }

    #[test]
    fn clrs_four_threads() {
        let (mut g, s, t) = clrs();
        assert_eq!(ParallelPushRelabel::new(4).max_flow(&mut g, s, t), 23);
        assert_valid_flow(&g, s, t);
    }

    #[test]
    fn clrs_compact_width() {
        let mut g: FlowGraph<i32> = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 3, 12);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 4, 14);
        g.add_edge(3, 2, 9);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 3, 7);
        g.add_edge(4, 5, 4);
        assert_eq!(ParallelPushRelabel::new(2).max_flow(&mut g, 0, 5), 23);
        assert_valid_flow(&g, 0, 5);
    }

    #[test]
    fn agrees_with_dinic_on_random_graphs() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(2024);
        for case in 0..40 {
            let n = rng.gen_range(4..20);
            let m = rng.gen_range(n..5 * n);
            let mut g: FlowGraph = FlowGraph::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(0..30));
                }
            }
            let mut oracle = g.clone();
            let want = dinic::max_flow(&mut oracle, 0, n - 1);
            let got = ParallelPushRelabel::new(2).max_flow(&mut g, 0, n - 1);
            assert_eq!(got, want, "case {case}");
            assert_valid_flow(&g, 0, n - 1);
        }
    }

    #[test]
    fn resume_after_capacity_increase() {
        let mut g: FlowGraph = FlowGraph::new(4);
        g.add_edge(0, 1, 10);
        let bottleneck = g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 10);
        let mut pr = ParallelPushRelabel::new(2);
        assert_eq!(pr.max_flow(&mut g, 0, 3), 3);
        g.set_cap(bottleneck, 8);
        assert_eq!(pr.resume(&mut g, 0, 3), 8);
        assert_valid_flow(&g, 0, 3);
    }

    #[test]
    fn repeated_resume_matches_sequential() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(5);
        let n = 14;
        let mut g: FlowGraph = FlowGraph::new(n);
        let mut sink_edges = Vec::new();
        for v in 1..n - 1 {
            g.add_edge(0, v, rng.gen_range(1..4));
            sink_edges.push(g.add_edge(v, n - 1, 0));
        }
        for _ in 0..25 {
            let u = rng.gen_range(1..n - 1);
            let v = rng.gen_range(1..n - 1);
            if u != v {
                g.add_edge(u, v, rng.gen_range(0..3));
            }
        }
        let mut pr = ParallelPushRelabel::new(2);
        pr.max_flow(&mut g, 0, n - 1);
        for _ in 0..12 {
            let e = sink_edges[rng.gen_range(0..sink_edges.len())];
            g.set_cap(e, g.cap(e) + 1);
            let got = pr.resume(&mut g, 0, n - 1);
            let mut oracle = g.clone();
            let want = dinic::max_flow(&mut oracle, 0, n - 1);
            assert_eq!(got, want);
            assert_valid_flow(&g, 0, n - 1);
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        // Exercises the park/dispatch handshake far more times than any
        // single retrieval solve does.
        let mut g: FlowGraph = FlowGraph::new(3);
        let e0 = g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 10_000);
        let mut pr = ParallelPushRelabel::new(2);
        assert_eq!(pr.max_flow(&mut g, 0, 2), 1);
        for want in 2..200 {
            g.set_cap(e0, want);
            assert_eq!(pr.resume(&mut g, 0, 2), want);
        }
    }

    #[test]
    fn shared_pool_across_solvers() {
        // One pool, two engines: the engines dispatch alternately onto the
        // same threads (the per-engine configuration of rds-core).
        let pool = WorkerPool::new(2);
        let mut a = ParallelPushRelabel::with_pool(pool.clone());
        let mut b = ParallelPushRelabel::with_pool(pool.clone());
        assert_eq!(a.threads, 2);
        for round in 0..8 {
            let (mut g1, s, t) = clrs();
            assert_eq!(a.max_flow(&mut g1, s, t), 23, "round {round}");
            a.reset_excess(g1.num_vertices());
            let (mut g2, s2, t2) = clrs();
            assert_eq!(b.max_flow(&mut g2, s2, t2), 23, "round {round}");
            b.reset_excess(g2.num_vertices());
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn topology_rebuild_on_new_graph_shape() {
        let mut pr = ParallelPushRelabel::new(2);
        let mut g1: FlowGraph = FlowGraph::new(3);
        g1.add_edge(0, 1, 4);
        g1.add_edge(1, 2, 4);
        assert_eq!(pr.max_flow(&mut g1, 0, 2), 4);
        // Different topology through the same engine.
        let mut g2: FlowGraph = FlowGraph::new(5);
        g2.add_edge(0, 1, 2);
        g2.add_edge(0, 2, 2);
        g2.add_edge(1, 3, 2);
        g2.add_edge(2, 3, 2);
        g2.add_edge(3, 4, 3);
        assert_eq!(pr.max_flow(&mut g2, 0, 4), 3);
    }

    #[test]
    fn equal_size_graphs_need_no_invalidation() {
        // Two graphs with identical vertex and edge-slot counts but
        // different shapes, solved back to back by one engine: each run
        // must walk the adjacency of the graph it is handed.
        for threads in [1, 2] {
            let mut pr = ParallelPushRelabel::new(threads);
            let mut g1: FlowGraph = FlowGraph::new(4);
            g1.add_edge(0, 1, 3);
            g1.add_edge(1, 3, 2);
            g1.add_edge(0, 2, 1);
            g1.add_edge(2, 3, 5);
            assert_eq!(pr.max_flow(&mut g1, 0, 3), 3, "{threads} threads");
            let mut g2: FlowGraph = FlowGraph::new(4);
            g2.add_edge(0, 2, 6);
            g2.add_edge(2, 1, 6);
            g2.add_edge(1, 3, 4);
            g2.add_edge(0, 3, 1);
            pr.reset_excess(4);
            assert_eq!(pr.max_flow(&mut g2, 0, 3), 5, "{threads} threads");
            assert_valid_flow(&g2, 0, 3);
        }
    }

    #[test]
    fn one_worker_runs_inline_without_a_pool() {
        let (mut g, s, t) = clrs();
        let mut pr = ParallelPushRelabel::new(1);
        assert_eq!(pr.max_flow(&mut g, s, t), 23);
        assert!(
            pr.pool.is_none(),
            "a one-worker round must not spawn a pool"
        );
        assert_eq!(pr.last_run.steals, 0);
    }

    #[test]
    fn round_panic_is_reraised_without_hanging_peers() {
        // A worker that panics mid-discharge leaves its vertex counted in
        // `active`; its idle peer must stop instead of waiting for
        // quiescence, and the panic must reach the caller. A head array
        // pointing past the vertex range makes the discharge panic.
        let (mut g, s, t) = clrs();
        g.finalize();
        let bogus = vec![u32::MAX; g.num_edge_slots()];
        let mut excess = vec![0i64; g.num_vertices()];
        excess[1] = 5;
        let pool = WorkerPool::new(2);
        let mut pr = ParallelPushRelabel::with_pool(pool.clone());
        let mut job = JobState::new(&g, &excess, 2, s, t);
        job.head = &bogus;
        job.relabel_limit.store(usize::MAX, Ordering::Relaxed);
        job.queued[1].store(true, Ordering::Relaxed);
        job.active.store(1, Ordering::Relaxed);
        job.queues[1].push(1).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pr.run_round(&job)));
        assert!(
            result.is_err(),
            "the round's panic must re-raise on the caller"
        );
        assert!(job.aborted.load(Ordering::SeqCst));
        // The pool survives and still runs rounds.
        let (mut g, s, t) = clrs();
        assert_eq!(pr.max_flow(&mut g, s, t), 23);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn run_tasks_executes_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let mut out = [0u64; 16];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = (i as u64 + 1) * 10) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_tasks(tasks);
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64 + 1) * 10, "task {i}");
        }
    }

    #[test]
    fn run_tasks_with_fewer_or_more_tasks_than_threads() {
        // Batches smaller than the pool wake only as many threads as they
        // have tasks beyond the caller's; larger ones wake them all. Mixed
        // back to back, every task of every batch runs exactly once.
        let pool = WorkerPool::new(4);
        for round in 0..200usize {
            let len = [2, 3, 4, 5, 9][round % 5];
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.run_tasks(
                hits.iter()
                    .map(|h| {
                        Box::new(move || {
                            h.fetch_add(1, Ordering::SeqCst);
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect(),
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "round {round}"
            );
        }
    }

    #[test]
    fn run_tasks_single_task_runs_inline() {
        let pool = WorkerPool::new(2);
        let mut hit = false;
        pool.run_tasks(vec![
            Box::new(|| hit = true) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(hit);
        pool.run_tasks(Vec::new()); // empty batch is a no-op
    }

    #[test]
    fn run_tasks_panic_is_reraised_and_batchmates_still_run() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    let done = Arc::clone(&done);
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 poisoned");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_tasks(tasks);
        }));
        assert!(result.is_err(), "panic must re-raise on the dispatcher");
        // The batch drains fully before the re-raise.
        assert_eq!(done.load(Ordering::SeqCst), 7);
        // The pool survives: both push/relabel rounds and fresh batches
        // still run.
        let (mut g, s, t) = clrs();
        let mut pr = ParallelPushRelabel::with_pool(pool.clone());
        assert_eq!(pr.max_flow(&mut g, s, t), 23);
        let mut again = 0usize;
        pool.run_tasks(
            (0..4)
                .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
                .collect(),
        );
        pool.run_tasks(vec![Box::new(|| again = 1) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(again, 1);
    }

    #[test]
    fn rounds_and_task_batches_interleave_on_one_pool() {
        let pool = WorkerPool::new(2);
        let mut pr = ParallelPushRelabel::with_pool(pool.clone());
        for round in 0..4 {
            let (mut g, s, t) = clrs();
            assert_eq!(pr.max_flow(&mut g, s, t), 23, "round {round}");
            pr.reset_excess(g.num_vertices());
            let mut sums = [0u64; 6];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = sums
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = (0..=i as u64).sum()) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_tasks(tasks);
            for (i, &v) in sums.iter().enumerate() {
                assert_eq!(v, (i as u64 * (i as u64 + 1)) / 2);
            }
        }
    }

    #[test]
    fn stats_recorded() {
        let (mut g, s, t) = clrs();
        let mut pr = ParallelPushRelabel::new(2);
        pr.max_flow(&mut g, s, t);
        assert!(pr.last_run.parallel_pushes > 0);
    }

    /// Sanitizer-style stress of the work-stealing rings: `T` threads
    /// hammer `T` rings with the exact access pattern of the discharge
    /// loop — push to your own ring, pop your own first, steal from peers
    /// — and every pushed value must be popped exactly once. Run under
    /// `cargo +nightly miri test` or TSan this doubles as a data-race
    /// check on the ring's release/acquire protocol.
    #[test]
    fn stealing_rings_never_lose_or_duplicate() {
        use std::sync::atomic::AtomicU64;
        const T: usize = 4;
        const PER_THREAD: u32 = 2_000;
        let rings: Arc<Vec<BoundedQueue>> =
            Arc::new((0..T).map(|_| BoundedQueue::with_capacity(64)).collect());
        let produced = Arc::new(AtomicUsize::new(0));
        let consumed_sum = Arc::new(AtomicU64::new(0));
        let consumed_count = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..T)
            .map(|id| {
                let rings = Arc::clone(&rings);
                let produced = Arc::clone(&produced);
                let consumed_sum = Arc::clone(&consumed_sum);
                let consumed_count = Arc::clone(&consumed_count);
                std::thread::spawn(move || {
                    let mut next = (id as u32) * PER_THREAD;
                    let end = next + PER_THREAD;
                    loop {
                        // Produce into our own ring (spin on transient full,
                        // as try_enqueue does).
                        if next < end {
                            while rings[id].push(next).is_err() {
                                // Ring full: drain one element ourselves so
                                // progress is guaranteed even if peers lag.
                                if let Some(v) = rings[id].pop() {
                                    consumed_sum.fetch_add(v as u64, Ordering::Relaxed);
                                    consumed_count.fetch_add(1, Ordering::Relaxed);
                                }
                                std::hint::spin_loop();
                            }
                            next += 1;
                            produced.fetch_add(1, Ordering::Relaxed);
                        }
                        // Consume: own ring first, then steal round-robin.
                        let mut v = rings[id].pop();
                        if v.is_none() {
                            for k in 1..T {
                                v = rings[(id + k) % T].pop();
                                if v.is_some() {
                                    break;
                                }
                            }
                        }
                        if let Some(v) = v {
                            consumed_sum.fetch_add(v as u64, Ordering::Relaxed);
                            consumed_count.fetch_add(1, Ordering::Relaxed);
                        } else if next >= end
                            && produced.load(Ordering::SeqCst) == T * PER_THREAD as usize
                            && consumed_count.load(Ordering::SeqCst) == T * PER_THREAD as usize
                        {
                            break;
                        } else if next >= end {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (T as u32 * PER_THREAD) as u64;
        // Sum of 0..total: every value seen exactly once.
        assert_eq!(consumed_count.load(Ordering::SeqCst) as u64, total);
        assert_eq!(consumed_sum.load(Ordering::SeqCst), total * (total - 1) / 2);
    }

    #[test]
    fn steals_are_counted_on_imbalanced_seeds() {
        // A wide star forces many active vertices; with 4 workers the
        // round-robin seed plus stealing should keep everyone busy. The
        // assertion is weak (steals is a counter, not a guarantee) but
        // pins the field's wiring.
        let n = 202;
        let mut g: FlowGraph = FlowGraph::new(n);
        for v in 1..n - 1 {
            g.add_edge(0, v, 3);
            g.add_edge(v, n - 1, 2);
        }
        let mut pr = ParallelPushRelabel::new(4);
        let want = 2 * (n as i64 - 2);
        assert_eq!(pr.max_flow(&mut g, 0, n - 1), want);
        assert_valid_flow(&g, 0, n - 1);
        // last_run.steals is recorded (possibly zero on a lucky schedule).
        let _ = pr.last_run.steals;
    }
}
