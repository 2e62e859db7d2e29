//! Sharded batch retrieval engine.
//!
//! An [`Engine`] serves many independent query streams — think one stream
//! per client or per tenant — over a single storage system and
//! allocation. Each stream is a full [`SessionState`] with its own disk
//! load feedback; streams are partitioned across shards by
//! `stream % num_shards`, each shard owning the states of its streams and
//! the lanes (workspaces) it solves on.
//!
//! Every admitted query, whether it came through [`Engine::submit_batch`]
//! or the online [`Engine::serve`](crate::serve) loop, runs through one
//! drain (see [`Engine::serve`](crate::serve)): admitted items → per-stream groups → lanes →
//! ordered finish. `submit_batch` is a thin adapter: a virtual-clock
//! serving run whose queues start out holding the whole batch.
//!
//! Because a stream lives wholly inside one shard and every shard
//! processes its queries in input order, batch results are deterministic:
//! the same batch produces the same outcomes for any shard count
//! (including 1). Cross-stream interactions don't exist by construction —
//! streams model *independent* sessions, the unit of parallelism the
//! paper's multi-query discussion permits.
//!
//! ## Fault tolerance
//!
//! Three layers keep a batch useful when hardware misbehaves:
//!
//! * **Fault awareness** — an optional [`FaultInjector`] (or any
//!   time-varying health source) makes every query plan around the
//!   [`HealthMap`] in force at its arrival: offline replicas are pruned,
//!   degraded disks carry inflated cost.
//! * **Replanning** — a query that is infeasible under the current health
//!   (some bucket lost every replica) is retried under the health at
//!   deterministic simulated-time backoff probes
//!   ([`RetryPolicy`]); if the engine is in degraded mode it finally
//!   falls back to a best-effort solve that serves the retrievable subset
//!   and reports the rest in [`SessionOutcome::unservable`].
//! * **Containment** — each query runs under `catch_unwind`, so a panic
//!   (a solver bug, a poisoned allocation) is confined to the query that
//!   hit it: it reports [`EngineError::ShardFailed`], the panicking
//!   stream's state is discarded (its virtual clock restarts), and every
//!   other stream's results are returned unharmed.

use crate::error::{EngineError, SessionError, SolveError};
use crate::fault::{FaultInjector, HealthMap};
use crate::obs::metrics::{Histogram, LatencySummary, MetricsRegistry};
use crate::obs::recorder::{FlightRecorder, FlightRecorderConfig, Postmortem, RecorderStats};
use crate::obs::span::QuerySpan;
use crate::obs::trace::TraceEvent;
use crate::schedule::SolveStats;
use crate::serve::{ClockState, ServeConfig, ServeError};
use crate::session::{ReuseCounters, SessionOutcome, SessionState};
use crate::solver::RetrievalSolver;
use crate::spec::{AnySolver, SolveBudget, SolverKind, SolverSpec};
use crate::workspace::Workspace;
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_flow::parallel::WorkerPool;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One query of a batch: which stream it belongs to, when it arrives,
/// and what it asks for.
#[derive(Clone, Debug)]
pub struct BatchQuery {
    /// Stream (independent session) identifier. Arrivals must be monotone
    /// non-decreasing *within* a stream; streams don't constrain each
    /// other.
    pub stream: usize,
    /// Arrival time on the stream's virtual clock.
    pub arrival: Micros,
    /// The requested buckets.
    pub buckets: Vec<Bucket>,
}

/// How the engine replans queries that are infeasible under the current
/// disk health: up to `max_retries` re-solves, probing the health map at
/// `arrival + backoff`, `arrival + 2·backoff`, … on the simulated clock.
/// A retry only re-solves when the probed health actually changed, so
/// retries are free while an outage persists. The stream's virtual clock
/// never advances past the query's arrival — later queries are unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-solve attempts per query (0 disables replanning).
    pub max_retries: u32,
    /// Simulated-time spacing between health probes.
    pub backoff: Micros,
}

impl Default for RetryPolicy {
    /// No retries; `backoff` of 1 ms is only used if `max_retries` is
    /// raised.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Micros::from_millis(1),
        }
    }
}

/// Aggregate counters across everything an [`Engine`] has processed.
#[must_use]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Queries submitted (successful or not).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// `submit_batch` calls and [`Engine::serve`](crate::serve) runs
    /// processed.
    pub batches: u64,
    /// Wall-clock time spent in `submit_batch` calls and
    /// [`Engine::serve`](crate::serve) runs.
    pub elapsed: Duration,
    /// Solver work counters summed over all successful queries.
    pub solve_stats: SolveStats,
    /// Total solves that ran in the engine's workspaces — equals the
    /// number of successful solver invocations that reused pre-allocated
    /// buffers instead of allocating fresh ones.
    pub workspace_solves: u64,
    /// Re-solves triggered by infeasibility under a changed health map.
    pub retries: u64,
    /// Queries answered by the best-effort degraded path (some buckets
    /// dropped).
    pub degraded_solves: u64,
    /// Buckets dropped as unservable across all degraded solves.
    pub dropped_buckets: u64,
    /// Queries lost to a panic ([`EngineError::ShardFailed`]); the same
    /// count as [`ServeStats::panics`](crate::serve::ServeStats::panics).
    pub shard_failures: u64,
    /// Batches (per shard) that took the fused drain path: multiple
    /// distinct-stream groups solved concurrently on detached lanes
    /// sharing the worker pool (see [`SolverSpec::batch_fuse`]).
    pub fused_batches: u64,
    /// Queries solved on a fused lane (subset of `queries`).
    pub fused_queries: u64,
    /// Cross-query reuse effectiveness (schedule-cache hits, delta
    /// patches, fallbacks), accumulated over every solve — monotone, so
    /// dropping a stream's state (after a panic) loses nothing.
    pub reuse: ReuseCounters,
}

impl EngineStats {
    /// Adds `other`'s counts into `self`.
    pub(crate) fn merge(&mut self, other: &EngineStats) {
        self.queries += other.queries;
        self.errors += other.errors;
        self.batches += other.batches;
        self.elapsed += other.elapsed;
        self.solve_stats.accumulate(&other.solve_stats);
        self.workspace_solves += other.workspace_solves;
        self.retries += other.retries;
        self.degraded_solves += other.degraded_solves;
        self.dropped_buckets += other.dropped_buckets;
        self.shard_failures += other.shard_failures;
        self.fused_batches += other.fused_batches;
        self.fused_queries += other.fused_queries;
        self.reuse.merge(&other.reuse);
    }

    /// Query throughput over the accumulated wall time of every
    /// `submit_batch` call and `serve` run ([`EngineStats::elapsed`]).
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            0.0
        }
    }
}

/// A point-in-time snapshot of an [`Engine`]'s observability state:
/// aggregate counters, quantile summaries of the latency histograms and
/// the histograms themselves.
///
/// Produced by [`Engine::metrics_snapshot`]; plain owned data. Use
/// [`MetricsSnapshot::to_registry`] (or the `to_prometheus`/`to_json`
/// shorthands) to export it.
#[must_use]
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Aggregate counters (queries, errors, retries, …).
    pub stats: EngineStats,
    /// Number of shards.
    pub shards: usize,
    /// p50/p95/p99 of per-query wall-clock solve time (µs).
    pub solve_latency_us: LatencySummary,
    /// p50/p95/p99 of binary-search probes per successful solve.
    pub probes_per_solve: LatencySummary,
    /// p50/p95/p99 of simulated queue→completion time (µs).
    pub turnaround_us: LatencySummary,
    /// The underlying histograms.
    pub histograms: EngineMetrics,
}

impl MetricsSnapshot {
    /// Assembles the snapshot into a named [`MetricsRegistry`] (metric
    /// names are prefixed `rds_`), ready for Prometheus or JSON export.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("rds_queries_total", self.stats.queries);
        reg.inc_counter("rds_errors_total", self.stats.errors);
        reg.inc_counter("rds_batches_total", self.stats.batches);
        reg.inc_counter("rds_retries_total", self.stats.retries);
        reg.inc_counter("rds_degraded_solves_total", self.stats.degraded_solves);
        reg.inc_counter("rds_dropped_buckets_total", self.stats.dropped_buckets);
        reg.inc_counter("rds_shard_failures_total", self.stats.shard_failures);
        reg.inc_counter("rds_fuse_batches_total", self.stats.fused_batches);
        reg.inc_counter("rds_fuse_queries_total", self.stats.fused_queries);
        reg.inc_counter("rds_workspace_solves_total", self.stats.workspace_solves);
        reg.inc_counter("rds_cache_hits_total", self.stats.reuse.cache_hits);
        reg.inc_counter("rds_cache_misses_total", self.stats.reuse.cache_misses);
        reg.inc_counter(
            "rds_cache_evictions_total",
            self.stats.reuse.cache_evictions,
        );
        reg.inc_counter("rds_delta_patches_total", self.stats.reuse.delta_patches);
        reg.inc_counter(
            "rds_delta_fallbacks_total",
            self.stats.reuse.delta_fallbacks,
        );
        reg.inc_counter(
            "rds_elapsed_us_total",
            self.stats.elapsed.as_micros() as u64,
        );
        reg.inc_counter("rds_solver_probes_total", self.stats.solve_stats.probes);
        reg.inc_counter(
            "rds_solver_resume_calls_total",
            self.stats.solve_stats.resume_calls,
        );
        reg.inc_counter(
            "rds_solver_maxflow_calls_total",
            self.stats.solve_stats.maxflow_calls,
        );
        reg.inc_counter(
            "rds_solver_increments_total",
            self.stats.solve_stats.increments,
        );
        reg.inc_counter(
            "rds_solver_dfs_calls_total",
            self.stats.solve_stats.dfs_calls,
        );
        reg.inc_counter("rds_solver_pushes_total", self.stats.solve_stats.pushes);
        reg.inc_counter("rds_solver_relabels_total", self.stats.solve_stats.relabels);
        reg.inc_counter(
            "rds_refine_passes_total",
            self.stats.solve_stats.refine_passes,
        );
        reg.inc_counter(
            "rds_refine_cycles_total",
            self.stats.solve_stats.refine_cycles,
        );
        reg.inc_counter(
            "rds_refine_moved_units_total",
            self.stats.solve_stats.refine_moved,
        );
        reg.set_gauge("rds_shards", self.shards as i64);
        // The arena width the solvers last ran under ("auto" until the
        // first successful solve).
        reg.set_gauge_labeled(
            "rds_arena_layout",
            &[("layout", self.stats.solve_stats.arena_layout.name())],
            1,
        );
        *reg.histogram_mut("rds_solve_latency_us") = self.histograms.solve_latency_us.clone();
        *reg.histogram_mut("rds_probes_per_solve") = self.histograms.probes_per_solve.clone();
        *reg.histogram_mut("rds_turnaround_us") = self.histograms.turnaround_us.clone();
        reg
    }

    /// Prometheus text exposition of [`MetricsSnapshot::to_registry`].
    pub fn to_prometheus(&self) -> String {
        self.to_registry().to_prometheus()
    }

    /// JSON rendering of [`MetricsSnapshot::to_registry`].
    pub fn to_json(&self) -> String {
        self.to_registry().to_json()
    }
}

/// The latency histograms an [`Engine`] maintains across batches, merged
/// from per-shard recordings after each run (shards record into private
/// copies, so the hot path never contends).
#[must_use]
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct EngineMetrics {
    /// Wall-clock time spent solving each query (including retries and
    /// the degraded fallback), in microseconds.
    pub solve_latency_us: Histogram,
    /// Binary-search probes per successful solve.
    pub probes_per_solve: Histogram,
    /// Simulated queue→completion time per successful query
    /// (`completion - arrival`), in microseconds.
    pub turnaround_us: Histogram,
}

impl EngineMetrics {
    pub(crate) fn merge(&mut self, other: &EngineMetrics) {
        self.solve_latency_us.merge(&other.solve_latency_us);
        self.probes_per_solve.merge(&other.probes_per_solve);
        self.turnaround_us.merge(&other.turnaround_us);
    }
}

/// One solve lane: a workspace plus its health scratch map, refreshed per
/// query from the fault schedule.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    pub(crate) workspace: Workspace,
    health: HealthMap,
}

/// One worker's slice of the engine: the states of the streams this
/// shard owns and the lanes it solves them on.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// The lane a single-lane drain runs on, inline on the shard's own
    /// thread. It is the only workspace that may hold the engine's
    /// [`WorkerPool`] (intra-solve parallelism).
    pub(crate) inline: Lane,
    /// Free list of pool lanes for fused drains: detached workspaces with
    /// plane sharing on, one checked out per stream group. They never
    /// hold the pool — they run *inside* a pool task, and dispatching on
    /// the same pool from a task would deadlock. Steady state allocates
    /// no new lane once the list has grown to the widest drain.
    pub(crate) lanes: Vec<Lane>,
    pub(crate) states: HashMap<usize, SessionState>,
    /// Finished [`QuerySpan`]s from the serving loop (always-on, bounded;
    /// see [`FlightRecorder`]). `submit_batch` runs record no spans.
    pub(crate) recorder: FlightRecorder,
}

/// Read-only context of one run, shared by every shard and lane.
pub(crate) struct DrainCtx<'c, A: ?Sized, S: ?Sized> {
    pub(crate) system: &'c SystemConfig,
    pub(crate) alloc: &'c A,
    pub(crate) solver: &'c S,
    pub(crate) injector: Option<&'c FaultInjector>,
    pub(crate) retry: RetryPolicy,
    pub(crate) degraded: bool,
    /// The engine's solve policy (reuse, objective, arena width, …).
    pub(crate) spec: &'c SolverSpec,
    /// Decides when the fault schedule is probed: at the arrival (virtual
    /// time, deterministic) or on the wall clock, so mid-flight health
    /// transitions are seen by the retry loop.
    pub(crate) clock: &'c ClockState,
    /// The pool fused drains fan out over; `None` unless
    /// [`SolverSpec::batch_fuse`] is on.
    pub(crate) pool: Option<&'c WorkerPool>,
}

/// One admitted query on its way to a lane: the query, the budget and
/// span to arm for it, and a caller tag returned with its result.
pub(crate) struct DrainItem<T> {
    pub(crate) query: BatchQuery,
    /// Caps real-clock retry backoff waits.
    pub(crate) deadline: Option<Micros>,
    pub(crate) budget: SolveBudget,
    pub(crate) span: Option<QuerySpan>,
    pub(crate) tag: T,
}

/// A lane's answer for one [`DrainItem`]: its result plus the facts of
/// the solve, which the finish stage counts.
pub(crate) struct Drained<T> {
    /// [`EngineError::ShardFailed`] exactly when the solve panicked.
    pub(crate) result: Result<SessionOutcome, EngineError>,
    /// Wall time of the solve, including retries and the degraded
    /// fallback.
    pub(crate) solve_us: u64,
    pub(crate) facts: SolveFacts,
    /// The item's span, disarmed after the solve.
    pub(crate) span: Option<QuerySpan>,
    pub(crate) tag: T,
}

/// What one solve did besides producing its result.
#[derive(Default)]
pub(crate) struct SolveFacts {
    /// Re-solves after a backoff probe saw the health change.
    pub(crate) retries: u64,
    /// Whether the degraded fallback answered.
    pub(crate) degraded: bool,
    /// Reuse counters the stream's state gained during the solve.
    pub(crate) reuse: ReuseCounters,
}

/// Creates the session state for a stream's first query under `ctx`'s
/// policies.
fn new_stream_state<A: ?Sized, S: ?Sized>(ctx: &DrainCtx<'_, A, S>) -> SessionState {
    let mut s = SessionState::with_reuse(ctx.system.num_disks(), ctx.spec.reuse);
    s.set_objective(ctx.spec.objective);
    s
}

impl Lane {
    /// Solves one item on this lane with its budget and span armed. This
    /// is the one panic-containment policy: a panicking solve drops its
    /// stream's state (a fresh clock on the stream's next query),
    /// reclaims the lane workspace, answers
    /// [`EngineError::ShardFailed`], and leaves batchmates unharmed.
    pub(crate) fn solve<A, S, T>(
        &mut self,
        shard_idx: usize,
        ctx: &DrainCtx<'_, A, S>,
        states: &mut HashMap<usize, SessionState>,
        item: DrainItem<T>,
    ) -> Drained<T>
    where
        A: ReplicaSource + ?Sized,
        S: RetrievalSolver + ?Sized,
    {
        let DrainItem {
            query,
            deadline,
            budget,
            span,
            tag,
        } = item;
        if let Some(span) = span {
            self.workspace.tracer.arm_span(span);
        }
        self.workspace.arm_budget(budget);
        let state = states
            .entry(query.stream)
            .or_insert_with(|| new_stream_state(ctx));
        let mut facts = SolveFacts::default();
        let started = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_one(ctx, &query, deadline, state, self, &mut facts)
        }));
        let solve_us = started.elapsed().as_micros() as u64;
        facts.reuse = state.take_reuse_counters();
        let result = caught.unwrap_or_else(|_| {
            states.remove(&query.stream);
            let _ = self.workspace.take_poisoned();
            Err(EngineError::ShardFailed { shard: shard_idx })
        });
        Drained {
            result,
            solve_us,
            facts,
            span: self.workspace.tracer.disarm_span(),
            tag,
        }
    }
}

/// Solves one query for `state` on `lane` under the health in force when
/// it is probed, with bounded replanning and an optional degraded
/// fallback, noting retries and the fallback in `facts`.
fn run_one<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
    ctx: &DrainCtx<'_, A, S>,
    q: &BatchQuery,
    deadline: Option<Micros>,
    state: &mut SessionState,
    lane: &mut Lane,
    facts: &mut SolveFacts,
) -> Result<SessionOutcome, EngineError> {
    let Lane { workspace, health } = lane;
    if let Some(inj) = ctx.injector {
        inj.health_at(ctx.clock.probe_time(q.arrival), health);
    } else {
        health.reset();
    }
    // One HealthTransition per change *as observed by this stream* —
    // streams are pinned to shards, so the event count is identical
    // for every shard count.
    let fp = health.fingerprint();
    if fp != state.observed_health_fp {
        state.observed_health_fp = fp;
        workspace
            .tracer
            .emit(TraceEvent::HealthTransition { fingerprint: fp });
    }

    let mut result = state.submit_with_health(
        ctx.system, ctx.alloc, ctx.solver, workspace, q.arrival, &q.buckets, health,
    );

    // Replan: probe the fault schedule at deterministic backoff steps
    // and re-solve whenever the health actually changed. Only
    // infeasibility is retryable — it is the one error a recovered
    // disk can cure.
    if let Some(inj) = ctx.injector {
        let mut attempt = 0u32;
        while attempt < ctx.retry.max_retries && is_infeasible(&result) {
            attempt += 1;
            // Probe at the scheduled backoff step or the current real
            // time, whichever is later. Virtual clocks never wait and
            // probe at the step itself; the real clock sleeps out the
            // backoff (capped by the deadline) and sees mid-flight
            // recoveries.
            let target = ctx
                .retry
                .backoff
                .as_micros()
                .checked_mul(u64::from(attempt))
                .and_then(|step| q.arrival.checked_add(Micros::from_micros(step)))
                .ok_or(SessionError::ClockOverflow { arrival: q.arrival })?;
            ctx.clock.wait_until(target, deadline);
            let probe = target.max(ctx.clock.probe_time(q.arrival));
            let before = health.fingerprint();
            inj.health_at(probe, health);
            if health.fingerprint() == before {
                continue;
            }
            facts.retries += 1;
            state.observed_health_fp = health.fingerprint();
            workspace
                .tracer
                .emit(TraceEvent::RetryScheduled { attempt, probe });
            result = state.submit_with_health(
                ctx.system, ctx.alloc, ctx.solver, workspace, q.arrival, &q.buckets, health,
            );
        }
    }

    // Last resort in degraded mode: serve what still has a replica.
    if ctx.degraded && is_infeasible(&result) {
        result = state.submit_degraded_with(
            ctx.system, ctx.alloc, ctx.solver, workspace, q.arrival, &q.buckets, health,
        );
        facts.degraded = result.is_ok();
    }

    result.map_err(EngineError::from)
}

fn is_infeasible(result: &Result<SessionOutcome, SessionError>) -> bool {
    matches!(
        result,
        Err(SessionError::Solve(SolveError::Infeasible { .. }))
    )
}

/// A front-end that shards independent query streams across worker
/// threads, each with persistent [`Workspace`]s and per-stream
/// [`SessionState`]s.
pub struct Engine<'a, A: ReplicaSource + Sync, S: RetrievalSolver + Sync> {
    pub(crate) system: &'a SystemConfig,
    pub(crate) alloc: &'a A,
    pub(crate) solver: S,
    pub(crate) shards: Vec<Shard>,
    pub(crate) stats: EngineStats,
    pub(crate) metrics: EngineMetrics,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) retry: RetryPolicy,
    pub(crate) degraded: bool,
    /// Solve policy shared by every stream: reuse, objective, budget,
    /// SLOs, arena width and fused drains.
    pub(crate) spec: SolverSpec,
    /// Spans of submissions the serving loop *rejected* at admission
    /// (they never reach a shard, so they get their own recorder).
    pub(crate) rejections: FlightRecorder,
    /// The shared worker pool, when one exists (parallel solver kind
    /// and/or fused drains).
    pub(crate) pool: Option<WorkerPool>,
}

/// Step-by-step construction of an [`Engine`]: the only way to make
/// one. The [`SolverSpec`] carries the solve policy; the builder adds
/// the engine-level knobs (shards, faults, replanning, tracing, flight
/// recorder).
///
/// ```
/// use rds_core::engine::Engine;
/// use rds_core::session::ReusePolicy;
/// use rds_core::spec::{ScheduleObjective, SolverKind, SolverSpec};
/// use rds_decluster::orthogonal::OrthogonalAllocation;
/// use rds_storage::experiments::paper_example;
///
/// let system = paper_example();
/// let alloc = OrthogonalAllocation::paper_7x7();
/// let engine = Engine::builder(&system, &alloc)
///     .solver_spec(
///         SolverSpec::new(SolverKind::PushRelabelBinary)
///             .objective(ScheduleObjective::MinMaxLoad)
///             .reuse(ReusePolicy::warm()),
///     )
///     .shards(2)
///     .build();
/// assert_eq!(engine.num_shards(), 2);
/// ```
#[must_use]
pub struct EngineBuilder<'a, A: ReplicaSource + Sync> {
    system: &'a SystemConfig,
    alloc: &'a A,
    spec: SolverSpec,
    shards: usize,
    retry: RetryPolicy,
    degraded: bool,
    injector: Option<FaultInjector>,
    tracing: Option<usize>,
    flight_recorder: FlightRecorderConfig,
}

impl<'a, A: ReplicaSource + Sync> EngineBuilder<'a, A> {
    /// Replaces the whole [`SolverSpec`] (kind and policy).
    pub fn solver_spec(mut self, spec: SolverSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Number of shard workers (minimum 1; default 1). Shard count only
    /// affects wall-clock time, never results.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replanning policy for infeasible queries (see [`RetryPolicy`]).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables degraded mode: queries that stay infeasible after
    /// replanning are answered best-effort, serving every bucket with a
    /// live replica and listing the rest in
    /// [`SessionOutcome::unservable`], instead of failing outright.
    pub fn degraded_mode(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }

    /// Installs a fault schedule: every query plans around the health in
    /// force when it is probed. Under the virtual clock health is a pure
    /// function of the schedule and the query's arrival, so results stay
    /// deterministic for any shard count.
    pub fn fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Installs a ring-buffer trace [`crate::obs::trace::Recorder`] of
    /// `capacity` events in every shard's inline lane, so the solver-phase
    /// [`TraceEvent`]s of single-lane drains are captured (read them with
    /// [`Engine::shard_recorder`]). Fused pool lanes record none; the
    /// engine's counters are [`Engine::stats`], not event counts.
    pub fn tracing(mut self, capacity: usize) -> Self {
        self.tracing = Some(capacity);
        self
    }

    /// Overrides the always-on flight-recorder retention knobs (ring
    /// capacity, healthy head-sample size, phases per span) of every
    /// shard and of the admission-rejection log.
    pub fn flight_recorder(mut self, config: FlightRecorderConfig) -> Self {
        self.flight_recorder = config;
        self
    }

    /// Materializes the engine with the solver [`SolverSpec::build`]
    /// describes.
    ///
    /// For the parallel solver kind this creates **one** shared
    /// [`WorkerPool`] sized from [`SolverSpec::parallelism`] and installs
    /// it in every shard workspace, so all shards (and every solve) reuse
    /// the same worker threads instead of spawning per solve.
    pub fn build(self) -> Engine<'a, A, AnySolver> {
        let solver = self.spec.build();
        let mut engine = self.build_with(solver);
        if engine.spec.kind == SolverKind::ParallelPushRelabelBinary {
            let threads = pool_threads(&engine.spec);
            let pool = engine.pool.get_or_insert_with(|| WorkerPool::new(threads));
            for shard in &mut engine.shards {
                shard.inline.workspace.set_worker_pool(pool.clone());
            }
        }
        engine
    }

    /// Materializes the engine around a caller-supplied solver. Every
    /// [`SolverSpec`] field applies except `kind`, which `solver`
    /// replaces.
    ///
    /// [`SolverSpec::batch_fuse`] creates the shared [`WorkerPool`]
    /// (without installing it in the workspaces — pool lanes must never
    /// dispatch on the pool they run inside), so drains can fan their
    /// stream groups out across it.
    pub fn build_with<S: RetrievalSolver + Sync>(self, solver: S) -> Engine<'a, A, S> {
        let spec = self.spec;
        let shards = (0..self.shards.max(1))
            .map(|_| {
                let mut shard = Shard {
                    recorder: FlightRecorder::new(self.flight_recorder),
                    ..Shard::default()
                };
                let ws = &mut shard.inline.workspace;
                ws.set_arena_layout(spec.arena_layout);
                if let Some(capacity) = self.tracing {
                    ws.install_recorder(capacity);
                }
                shard
            })
            .collect();
        Engine {
            system: self.system,
            alloc: self.alloc,
            solver,
            shards,
            stats: EngineStats::default(),
            metrics: EngineMetrics::default(),
            injector: self.injector,
            retry: self.retry,
            degraded: self.degraded,
            spec,
            rejections: FlightRecorder::new(self.flight_recorder),
            pool: spec
                .batch_fuse
                .then(|| WorkerPool::new(pool_threads(&spec))),
        }
    }
}

/// Threads of the engine's shared pool: [`SolverSpec::parallelism`], or
/// the parallel solver's default of 2 when it is unset.
fn pool_threads(spec: &SolverSpec) -> usize {
    if spec.parallelism == 0 {
        2
    } else {
        spec.parallelism
    }
}

impl<'a, A: ReplicaSource + Sync> Engine<'a, A, AnySolver> {
    /// Starts building an engine from the default spec
    /// ([`SolverKind::PushRelabelBinary`], no reuse) and one shard.
    pub fn builder(system: &'a SystemConfig, alloc: &'a A) -> EngineBuilder<'a, A> {
        EngineBuilder {
            system,
            alloc,
            spec: SolverSpec::new(SolverKind::PushRelabelBinary),
            shards: 1,
            retry: RetryPolicy::default(),
            degraded: false,
            injector: None,
            tracing: None,
            flight_recorder: FlightRecorderConfig::default(),
        }
    }
}

impl<'a, A: ReplicaSource + Sync, S: RetrievalSolver + Sync> Engine<'a, A, S> {
    /// Snapshots the flight recorders for after-the-fact debugging: every
    /// retained [`crate::obs::span::QuerySpan`] across all shards (shard
    /// order, oldest first within a shard), the spans of rejected
    /// submissions, and merged retention statistics.
    ///
    /// Spans are recorded only by the serving loop
    /// ([`Engine::serve`](crate::serve)); after batch-only use the
    /// snapshot is empty. Render with
    /// [`Postmortem::to_chrome_trace`] or [`Postmortem::to_statusz`].
    pub fn postmortem(&self) -> Postmortem {
        let mut stats = RecorderStats::default();
        let mut spans = Vec::new();
        for shard in &self.shards {
            spans.extend(shard.recorder.spans().cloned());
            stats.merge(&shard.recorder.stats());
        }
        stats.merge(&self.rejections.stats());
        Postmortem {
            spans,
            rejections: self.rejections.spans().cloned().collect(),
            stats,
        }
    }

    /// Number of shards (worker threads used per batch).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate statistics over every batch processed so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Arena allocation events summed over every lane of every shard,
    /// monotone over the engine's lifetime. Flat between two
    /// observations means the solves in between — including fused drains
    /// checking capacity planes out of the lane free list — reused
    /// existing buffers end to end.
    pub fn arena_allocation_events(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| std::iter::once(&s.inline).chain(&s.lanes))
            .map(|l| l.workspace.arena_allocation_events())
            .sum()
    }

    /// The engine's latency histograms, merged over every batch and shard
    /// processed so far.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The ring-buffer trace recorder of one shard, if tracing was
    /// enabled via [`EngineBuilder::tracing`].
    pub fn shard_recorder(&self, shard: usize) -> Option<&crate::obs::trace::Recorder> {
        self.shards.get(shard)?.inline.workspace.recorder()
    }

    /// A point-in-time snapshot of everything the engine measures:
    /// counters and p50/p95/p99 latency summaries — plain data,
    /// exportable as Prometheus text or JSON.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stats: self.stats,
            shards: self.shards.len(),
            solve_latency_us: self.metrics.solve_latency_us.summary(),
            probes_per_solve: self.metrics.probes_per_solve.summary(),
            turnaround_us: self.metrics.turnaround_us.summary(),
            histograms: self.metrics.clone(),
        }
    }

    /// Processes a batch of queries and returns one result per query, in
    /// input order. Per-query failures — non-monotone arrival on a
    /// stream, solver rejection, infeasibility under the current health,
    /// even a panic inside a solver — are reported in place; they never
    /// abort the rest of the batch, and results from healthy streams are
    /// always returned.
    ///
    /// This is a virtual-clock [`Engine::serve`](crate::serve) run with
    /// no admission limits and spans off, whose queues hold the whole
    /// batch before admission closes: each shard drains its queries in
    /// one go, probing faults at the arrivals, so results are
    /// deterministic.
    pub fn submit_batch(
        &mut self,
        queries: &[BatchQuery],
    ) -> Vec<Result<SessionOutcome, EngineError>> {
        let num_shards = self.shards.len();
        let config = ServeConfig::default()
            .virtual_time()
            .queue_capacity(usize::MAX)
            .batch_max(queries.len())
            .record_spans(false);
        let report = self.run_serving(config, Some(queries), |_| ());
        // The batch is admitted first, so ticket `k + 1` is query `k`.
        let mut results: Vec<Option<Result<SessionOutcome, EngineError>>> =
            (0..queries.len()).map(|_| None).collect();
        for r in report.unclaimed {
            results[r.ticket.0 as usize - 1] = Some(r.result.map_err(|ServeError::Engine(e)| e));
        }
        // A shard worker that died outside per-query containment left
        // its queries unanswered (`run_serving` counted them): they fail
        // typed.
        results
            .into_iter()
            .zip(queries)
            .map(|(r, q)| {
                r.unwrap_or(Err(EngineError::ShardFailed {
                    shard: q.stream % num_shards,
                }))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SolveError;
    use crate::fault::DiskHealth;
    use crate::network::RetrievalInstance;
    use crate::pr::PushRelabelBinary;
    use crate::schedule::RetrievalOutcome;
    use crate::session::ReusePolicy;
    use crate::spec::ArenaLayout;
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::specs::CHEETAH;

    fn batch(streams: usize, per_stream: usize) -> Vec<BatchQuery> {
        let mut queries = Vec::new();
        for k in 0..per_stream {
            for s in 0..streams {
                let q = RangeQuery::new(s % 5, k % 5, 1 + (s + k) % 3, 1 + s % 3);
                queries.push(BatchQuery {
                    stream: s,
                    arrival: Micros::from_millis((k * 2) as u64),
                    buckets: q.buckets(5),
                });
            }
        }
        queries
    }

    #[test]
    fn batch_results_are_independent_of_shard_count() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(6, 4);
        let baseline: Vec<_> = {
            let mut engine = Engine::builder(&system, &alloc).build();
            engine
                .submit_batch(&queries)
                .into_iter()
                .map(|r| r.map(|o| (o.outcome.response_time, o.completion)))
                .collect()
        };
        for shards in [2usize, 3, 8] {
            let mut engine = Engine::builder(&system, &alloc).shards(shards).build();
            let got: Vec<_> = engine
                .submit_batch(&queries)
                .into_iter()
                .map(|r| r.map(|o| (o.outcome.response_time, o.completion)))
                .collect();
            assert_eq!(got, baseline, "{shards} shards");
        }
    }

    #[test]
    fn streams_keep_independent_load_state_across_batches() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::builder(&system, &alloc).shards(2).build();
        let full = RangeQuery::new(0, 0, 1, 5).buckets(5);
        let q = |stream| BatchQuery {
            stream,
            arrival: Micros::ZERO,
            buckets: full.clone(),
        };
        // Stream 0 submits twice (second queues behind the first); stream
        // 1 once. A second batch continues where the first left off.
        let r1 = engine.submit_batch(&[q(0), q(1), q(0)]);
        let t = Micros::from_tenths_ms(61);
        assert_eq!(r1[0].as_ref().unwrap().outcome.response_time, t);
        assert_eq!(r1[1].as_ref().unwrap().outcome.response_time, t);
        assert_eq!(r1[2].as_ref().unwrap().outcome.response_time, t * 2);
        let r2 = engine.submit_batch(&[q(1)]);
        assert_eq!(r2[0].as_ref().unwrap().outcome.response_time, t * 2);
    }

    #[test]
    fn per_query_errors_do_not_abort_the_batch() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::builder(&system, &alloc).shards(2).build();
        let b = RangeQuery::new(0, 0, 1, 1).buckets(5);
        let mk = |stream, ms| BatchQuery {
            stream,
            arrival: Micros::from_millis(ms),
            buckets: b.clone(),
        };
        // Stream 0 goes back in time on its second query; stream 1 is fine.
        let results = engine.submit_batch(&[mk(0, 10), mk(0, 5), mk(1, 0), mk(0, 10)]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::Session(
                SessionError::NonMonotoneArrival { .. }
            ))
        ));
        assert!(results[2].is_ok());
        // The stream survived its bad query.
        assert!(results[3].is_ok());
        assert_eq!(engine.stats().queries, 4);
        assert_eq!(engine.stats().errors, 1);
        assert_eq!(engine.stats().batches, 1);
    }

    #[test]
    fn stats_accumulate_solver_work() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::builder(&system, &alloc).build();
        let queries = batch(3, 3);
        let results = engine.submit_batch(&queries);
        let want: u64 = results
            .iter()
            .map(|r| r.as_ref().unwrap().outcome.stats.resume_calls)
            .sum();
        assert_eq!(engine.stats().solve_stats.resume_calls, want);
        assert_eq!(engine.stats().workspace_solves, 9);
        assert!(engine.stats().queries_per_sec() > 0.0);
    }

    /// A solver that panics whenever the query contains a poison bucket —
    /// simulates a latent solver bug for containment tests.
    #[derive(Clone, Copy)]
    struct PanicOnBucket(rds_decluster::query::Bucket);

    impl RetrievalSolver for PanicOnBucket {
        fn name(&self) -> &'static str {
            "panic-on-bucket"
        }
        fn solve_in(
            &self,
            inst: &RetrievalInstance,
            ws: &mut Workspace,
        ) -> Result<RetrievalOutcome, SolveError> {
            assert!(!inst.buckets.contains(&self.0), "injected solver bug");
            PushRelabelBinary.solve_in(inst, ws)
        }
    }

    #[test]
    fn panic_is_contained_to_the_poisoned_query() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let poison = RangeQuery::new(3, 3, 1, 1).buckets(5)[0];
        for shards in [1usize, 2, 4] {
            let mut engine = Engine::builder(&system, &alloc)
                .shards(shards)
                .build_with(PanicOnBucket(poison));
            let good = RangeQuery::new(0, 0, 1, 2).buckets(5);
            let bad = RangeQuery::new(3, 3, 1, 1).buckets(5);
            let mk = |stream, ms, buckets: &Vec<_>| BatchQuery {
                stream,
                arrival: Micros::from_millis(ms),
                buckets: buckets.clone(),
            };
            let results = engine.submit_batch(&[
                mk(0, 0, &good),
                mk(1, 0, &bad),
                mk(2, 0, &good),
                mk(1, 5, &good),
            ]);
            assert!(results[0].is_ok(), "{shards} shards");
            assert_eq!(
                results[1].as_ref().unwrap_err(),
                &EngineError::ShardFailed { shard: 1 % shards }
            );
            assert!(results[2].is_ok());
            // The poisoned stream restarts cleanly on its next query.
            assert!(results[3].is_ok());
            assert_eq!(engine.stats().shard_failures, 1);
            assert_eq!(engine.stats().errors, 1);
        }
    }

    /// Canonical comparison key for fused-vs-serial equivalence: the
    /// full schedule (bucket→disk assignments), response time and
    /// completion — bit-identical means all of these match.
    #[allow(clippy::type_complexity)]
    fn outcome_key(
        r: &Result<SessionOutcome, EngineError>,
    ) -> Result<(Micros, Micros, Vec<(Bucket, usize)>), EngineError> {
        r.as_ref()
            .map(|o| {
                (
                    o.outcome.response_time,
                    o.completion,
                    o.outcome.schedule.assignments().to_vec(),
                )
            })
            .map_err(|e| *e)
    }

    /// Golden digest of [`fused_batches_are_bit_identical_to_serial`]:
    /// response times, completions and schedules of the batch under both
    /// arena widths, pinned from the implementation that still had
    /// separate serial and fused drains, so the test keeps asserting
    /// something now that every configuration runs the same drain.
    const FUSED_BATCH_GOLDEN: u64 = 8_043_685_641_648_433_747;

    #[test]
    fn fused_batches_are_bit_identical_to_serial() {
        use std::hash::{Hash, Hasher};
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(6, 4);
        let mut digest = std::collections::hash_map::DefaultHasher::new();
        for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
            let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
                .reuse(ReusePolicy::warm())
                .arena_layout(layout);
            let mut baseline = None;
            for (fuse, shards) in [1usize, 2, 4]
                .map(|s| (false, s))
                .into_iter()
                .chain([1usize, 2, 4].map(|s| (true, s)))
            {
                let mut engine = Engine::builder(&system, &alloc)
                    .solver_spec(if fuse {
                        spec.batch_fuse(true).parallelism(3)
                    } else {
                        spec
                    })
                    .shards(shards)
                    .build();
                let got: Vec<_> = engine
                    .submit_batch(&queries)
                    .iter()
                    .map(outcome_key)
                    .collect();
                let what = format!("{layout:?} fuse={fuse} {shards} shards");
                // Every query solves in some lane's workspace, inline or
                // pool lane alike.
                assert_eq!(
                    engine.stats().workspace_solves,
                    queries.len() as u64,
                    "{what}"
                );
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => assert_eq!(&got, want, "{what}"),
                }
                if !fuse {
                    assert_eq!(engine.stats().fused_batches, 0, "{what}");
                    continue;
                }
                assert!(engine.stats().fused_batches >= 1, "fused path engaged");
                // Shards that own a single stream group drain on one
                // lane, so the fused count is a (non-empty) subset.
                let fused = engine.stats().fused_queries;
                assert!(fused >= 1 && fused <= queries.len() as u64);
                // A second batch recycles the lane free list.
                let again: Vec<_> = engine
                    .submit_batch(&queries)
                    .iter()
                    .map(outcome_key)
                    .collect();
                let n: usize = engine.shards.iter().map(|s| s.lanes.len()).sum();
                assert!(n >= 2, "lanes retained for recycling");
                drop(again);
            }
            for key in baseline.expect("at least one configuration ran") {
                key.expect("every query is feasible").hash(&mut digest);
            }
        }
        assert_eq!(digest.finish(), FUSED_BATCH_GOLDEN, "pinned golden digest");
    }

    #[test]
    fn fused_single_stream_falls_back_to_serial() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(1, 4); // one stream: one group, nothing to fuse
        let spec = SolverSpec::new(SolverKind::PushRelabelBinary);
        let want: Vec<_> = Engine::builder(&system, &alloc)
            .solver_spec(spec)
            .build()
            .submit_batch(&queries)
            .iter()
            .map(outcome_key)
            .collect();
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(spec.batch_fuse(true))
            .build();
        let got: Vec<_> = engine
            .submit_batch(&queries)
            .iter()
            .map(outcome_key)
            .collect();
        assert!(got.iter().all(|r| r.is_ok()));
        assert_eq!(got, want);
        // The single lane runs inline: no pool lane is checked out and
        // every solve lands in the shard's own workspace.
        assert_eq!(engine.stats().fused_batches, 0);
        assert_eq!(engine.stats().fused_queries, 0);
        assert!(engine.shards[0].lanes.is_empty());
        assert_eq!(engine.stats().workspace_solves, 4);
    }

    /// Both front-ends share one panic policy: the same shard-failure
    /// count, a solve-latency sample for every query handled (panicked
    /// ones included), and the poisoned stream's next query solved from a
    /// fresh state — for every shard count and fuse setting.
    #[test]
    fn fused_panic_containment_matches_serial() {
        use crate::serve::{QueryRequest, ServeConfig, ServeError};
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let poison = RangeQuery::new(3, 3, 1, 1).buckets(5)[0];
        let good = RangeQuery::new(0, 0, 1, 2).buckets(5);
        let bad = RangeQuery::new(3, 3, 1, 1).buckets(5);
        let mk = |stream, ms, buckets: &Vec<_>| BatchQuery {
            stream,
            arrival: Micros::from_millis(ms),
            buckets: buckets.clone(),
        };
        // Stream 1 loads its disks, panics, then queries again while
        // those disks would still be busy had its state survived.
        let queries = [
            mk(0, 0, &good),
            mk(1, 0, &good),
            mk(1, 1, &bad),
            mk(2, 0, &good),
            mk(1, 2, &good),
        ];
        let fresh = Engine::builder(&system, &alloc)
            .build()
            .submit_batch(&queries[4..])[0]
            .as_ref()
            .unwrap()
            .outcome
            .response_time;
        let kept = Engine::builder(&system, &alloc)
            .build()
            .submit_batch(&[mk(1, 0, &good), mk(1, 2, &good)])[1]
            .as_ref()
            .unwrap()
            .outcome
            .response_time;
        assert_ne!(fresh, kept, "the test distinguishes a fresh state");
        for (fuse, shards) in [(false, 1usize), (false, 2), (true, 1), (true, 2)] {
            let what = format!("fuse={fuse} {shards} shards");
            let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
                .batch_fuse(fuse)
                .parallelism(2);
            let new_engine = || {
                Engine::builder(&system, &alloc)
                    .solver_spec(spec)
                    .shards(shards)
                    .build_with(PanicOnBucket(poison))
            };
            let failed = EngineError::ShardFailed { shard: 1 % shards };

            let mut engine = new_engine();
            let results = engine.submit_batch(&queries);
            for (k, r) in results.iter().enumerate() {
                match k {
                    2 => assert_eq!(r.as_ref().unwrap_err(), &failed, "{what}"),
                    _ => assert!(r.is_ok(), "{what}: query {k}"),
                }
            }
            let rt = results[4].as_ref().unwrap().outcome.response_time;
            assert_eq!(rt, fresh, "{what}: poisoned stream restarts fresh");
            assert_eq!(engine.stats().shard_failures, 1, "{what}");
            assert_eq!(engine.metrics().solve_latency_us.count(), 5, "{what}");
            assert_eq!(engine.stats().fused_batches, u64::from(fuse), "{what}");

            let mut engine = new_engine();
            let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
                for q in &queries {
                    let req = QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival);
                    h.submit(req).unwrap();
                }
            });
            let mut responses = report.unclaimed;
            responses.sort_by_key(|r| r.ticket);
            assert_eq!(
                responses[2].result.as_ref().unwrap_err(),
                &ServeError::Engine(failed),
                "{what}"
            );
            let rt = responses[4].result.as_ref().unwrap().outcome.response_time;
            assert_eq!(rt, fresh, "{what}: poisoned stream restarts fresh");
            assert_eq!(report.stats.panics, 1, "{what}");
            assert_eq!(engine.stats().shard_failures, 1, "{what}");
            assert_eq!(engine.metrics().solve_latency_us.count(), 5, "{what}");
        }
    }

    #[test]
    fn fused_counts_reach_the_metrics_export() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(4, 2);
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary)
                    .reuse(ReusePolicy::warm())
                    .batch_fuse(true),
            )
            .build();
        let results = engine.submit_batch(&queries);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = engine.stats();
        assert_eq!(stats.fused_batches, 1);
        assert_eq!(stats.fused_queries, queries.len() as u64);
        let reg = engine.metrics_snapshot().to_registry();
        assert_eq!(reg.counter("rds_fuse_batches_total"), Some(1));
        assert_eq!(
            reg.counter("rds_fuse_queries_total"),
            Some(queries.len() as u64)
        );
    }

    /// Reuse counters accumulate per solve: a contained panic that drops
    /// a warm stream's state keeps the hits and misses counted before it.
    #[test]
    fn reuse_counters_never_go_down() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let bad = RangeQuery::new(3, 3, 1, 1).buckets(5);
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary).reuse(ReusePolicy {
                    warm_start: true,
                    cache_capacity: 4,
                }),
            )
            .build_with(PanicOnBucket(bad[0]));
        let mk = |k: u64, buckets: Vec<Bucket>| BatchQuery {
            stream: 0,
            arrival: Micros::from_millis(k * 60_000),
            buckets,
        };
        // Columns 0,1,0,2,1,0 of one window, spaced so loads drain:
        // revisits hit the schedule cache.
        let warm: Vec<BatchQuery> = [0usize, 1, 0, 2, 1, 0]
            .iter()
            .enumerate()
            .map(|(k, &col)| mk(k as u64, RangeQuery::new(0, col, 2, 2).buckets(5)))
            .collect();
        assert!(engine.submit_batch(&warm).iter().all(|r| r.is_ok()));
        let before = engine.stats().reuse;
        assert_eq!((before.cache_hits, before.cache_misses), (3, 3));
        let results = engine.submit_batch(&[mk(6, bad)]);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &EngineError::ShardFailed { shard: 0 }
        );
        let after = engine.stats().reuse;
        assert!(after.cache_hits >= before.cache_hits, "{after:?}");
        assert!(after.cache_misses >= before.cache_misses, "{after:?}");
        assert!(after.cache_evictions >= before.cache_evictions, "{after:?}");
        assert!(after.delta_patches >= before.delta_patches, "{after:?}");
        assert!(after.delta_fallbacks >= before.delta_fallbacks, "{after:?}");
    }

    #[test]
    fn offline_disks_reroute_and_infeasible_is_typed() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let b = RangeQuery::new(0, 1, 1, 1).buckets(5);
        // Find the two replica disks of that single bucket.
        let replicas: Vec<usize> = alloc.replicas(b[0]).iter().collect();
        assert!(replicas.len() >= 2);

        // One replica down: the query reroutes to the survivor.
        let injector = FaultInjector::pinned(&HealthMap::with_offline(&replicas[..1]));
        let mut engine = Engine::builder(&system, &alloc)
            .shards(2)
            .fault_injector(injector)
            .build();
        let q = BatchQuery {
            stream: 0,
            arrival: Micros::ZERO,
            buckets: b.clone(),
        };
        let results = engine.submit_batch(std::slice::from_ref(&q));
        let out = results[0].as_ref().unwrap();
        let (_, disk) = out.outcome.schedule.assignments()[0];
        assert!(!replicas[..1].contains(&disk));

        // All replicas down: typed infeasibility naming the bucket.
        let injector = FaultInjector::pinned(&HealthMap::with_offline(&replicas));
        let mut engine = Engine::builder(&system, &alloc)
            .shards(2)
            .fault_injector(injector)
            .build();
        let results = engine.submit_batch(std::slice::from_ref(&q));
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &EngineError::Session(SessionError::Solve(SolveError::Infeasible {
                bucket: Some(b[0]),
                delivered: 0,
                required: 1,
            }))
        );
    }

    #[test]
    fn retry_replans_after_recovery() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let b = RangeQuery::new(0, 1, 1, 1).buckets(5);
        let replicas: Vec<usize> = alloc.replicas(b[0]).iter().collect();

        // Both replicas go down at t=0 and recover at t=3ms; the query
        // arrives at t=1ms. With backoff 1ms and 3 retries, the probe at
        // t=3ms sees the recovery and the re-solve succeeds.
        let mut injector = FaultInjector::new();
        for &d in &replicas {
            injector.schedule(Micros::ZERO, d, DiskHealth::Offline);
            injector.schedule(Micros::from_millis(3), d, DiskHealth::Healthy);
        }
        let mut engine = Engine::builder(&system, &alloc)
            .fault_injector(injector)
            .retry_policy(RetryPolicy {
                max_retries: 3,
                backoff: Micros::from_millis(1),
            })
            .build();
        let q = BatchQuery {
            stream: 0,
            arrival: Micros::from_millis(1),
            buckets: b.clone(),
        };
        let results = engine.submit_batch(std::slice::from_ref(&q));
        assert!(results[0].is_ok(), "recovered replica should serve");
        assert_eq!(engine.stats().retries, 1);
        assert_eq!(engine.stats().errors, 0);
    }

    #[test]
    fn degraded_mode_serves_the_retrievable_subset() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let buckets = RangeQuery::new(0, 0, 1, 5).buckets(5);
        // Kill every replica of exactly one bucket.
        let victim = buckets[2];
        let dead: Vec<usize> = alloc.replicas(victim).iter().collect();
        let injector = FaultInjector::pinned(&HealthMap::with_offline(&dead));

        let mut engine = Engine::builder(&system, &alloc)
            .shards(2)
            .fault_injector(injector)
            .degraded_mode(true)
            .build();
        let q = BatchQuery {
            stream: 0,
            arrival: Micros::ZERO,
            buckets: buckets.clone(),
        };
        let results = engine.submit_batch(std::slice::from_ref(&q));
        let out = results[0].as_ref().unwrap();
        assert!(!out.is_complete());
        assert!(out.unservable.contains(&victim));
        assert_eq!(
            out.outcome.schedule.len() + out.unservable.len(),
            buckets.len()
        );
        assert_eq!(engine.stats().degraded_solves, 1);
        assert!(engine.stats().dropped_buckets >= 1);
        assert_eq!(engine.stats().errors, 0);
    }
}
