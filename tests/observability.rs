//! Observability: trace events must reconcile exactly with the solver's
//! own `SolveStats`, the engine's counters must be invariant to its shard
//! count and fuse setting, and metrics snapshots must round-trip through
//! both export formats.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use replicated_retrieval::core::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
use replicated_retrieval::core::ff::{FordFulkersonBasic, FordFulkersonIncremental};
use replicated_retrieval::core::parallel::ParallelPushRelabelBinary;
use replicated_retrieval::core::pr::{PushRelabelBinary, PushRelabelIncremental};
use replicated_retrieval::prelude::*;
use replicated_retrieval::storage::specs;

fn traced_solve(
    solver: &(dyn RetrievalSolver + Sync),
    inst: &RetrievalInstance,
) -> (RetrievalOutcome, Workspace) {
    let mut ws = Workspace::new();
    ws.install_recorder(1 << 14);
    let outcome = solver.solve_in(inst, &mut ws).unwrap();
    (outcome, ws)
}

fn table_ii_instance(r: usize, c: usize) -> RetrievalInstance {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let q = RangeQuery::new(1, 0, r, c);
    RetrievalInstance::build(&system, &alloc, &q.buckets(7))
}

/// Every solver: one `SolveStart` per solve, `ProbeStart` == `ProbeEnd`
/// == `stats.probes`, `CapacityIncrement` == `stats.increments`.
#[test]
fn events_reconcile_with_solve_stats_for_every_solver() {
    let solvers: Vec<Box<dyn RetrievalSolver + Sync>> = vec![
        Box::new(PushRelabelBinary),
        Box::new(PushRelabelIncremental),
        Box::new(FordFulkersonIncremental),
        Box::new(BlackBoxPushRelabel),
        Box::new(BlackBoxFordFulkerson),
        Box::new(ParallelPushRelabelBinary::new(2)),
    ];
    let inst = table_ii_instance(5, 4);
    for solver in &solvers {
        let (outcome, ws) = traced_solve(solver.as_ref(), &inst);
        let rec = ws.recorder().expect("recorder installed");
        assert_eq!(rec.dropped(), 0, "{}: ring too small", solver.name());
        assert_eq!(rec.count(EventKind::SolveStart), 1, "{}", solver.name());
        assert_eq!(
            rec.count(EventKind::ProbeStart),
            outcome.stats.probes,
            "{}: ProbeStart vs probes",
            solver.name()
        );
        assert_eq!(
            rec.count(EventKind::ProbeEnd),
            rec.count(EventKind::ProbeStart),
            "{}: unbalanced probe spans",
            solver.name()
        );
        assert_eq!(
            rec.count(EventKind::CapacityIncrement),
            outcome.stats.increments,
            "{}: CapacityIncrement vs increments",
            solver.name()
        );
    }
}

/// Push-relabel solvers: one `RelabelPass` per engine run, and the event
/// payloads sum to exactly the pushes/relabels reported in `SolveStats`.
#[test]
fn relabel_pass_events_sum_to_stats_pushes_and_relabels() {
    let inst = table_ii_instance(7, 7);
    for solver in [
        &PushRelabelBinary as &(dyn RetrievalSolver + Sync),
        &PushRelabelIncremental,
    ] {
        let (outcome, ws) = traced_solve(solver, &inst);
        let rec = ws.recorder().unwrap();
        assert_eq!(
            rec.count(EventKind::RelabelPass),
            outcome.stats.resume_calls,
            "{}: one RelabelPass per resume",
            solver.name()
        );
        let (mut pushes, mut relabels) = (0u64, 0u64);
        for e in rec.events() {
            if let TraceEvent::RelabelPass {
                pushes: p,
                relabels: r,
            } = e
            {
                pushes += p;
                relabels += r;
            }
        }
        assert_eq!(pushes, outcome.stats.pushes, "{}", solver.name());
        assert_eq!(relabels, outcome.stats.relabels, "{}", solver.name());
        assert!(pushes > 0, "{}: no push work recorded", solver.name());
    }

    // The black-box PR baseline attributes work per from-scratch max-flow
    // call instead.
    let (outcome, ws) = traced_solve(&BlackBoxPushRelabel, &inst);
    let rec = ws.recorder().unwrap();
    assert_eq!(
        rec.count(EventKind::RelabelPass),
        outcome.stats.maxflow_calls
    );
    assert!(outcome.stats.pushes > 0);
}

/// Ford-Fulkerson solvers: exactly one `Augment` per requested bucket —
/// each bucket's unit of flow is routed by one successful DFS.
#[test]
fn ff_emits_one_augment_per_bucket() {
    let inst = table_ii_instance(4, 6);
    for solver in [
        &FordFulkersonIncremental as &(dyn RetrievalSolver + Sync),
        &BlackBoxFordFulkerson,
    ] {
        let (outcome, ws) = traced_solve(solver, &inst);
        let augments = ws.recorder().unwrap().count(EventKind::Augment);
        match solver.name() {
            "FF-incremental" => {
                assert_eq!(augments, inst.query_size() as u64);
                assert!(outcome.stats.dfs_calls >= augments);
            }
            // The black box re-runs a self-contained max-flow that does
            // not emit per-bucket events.
            _ => assert_eq!(augments, 0),
        }
    }

    let system = SystemConfig::homogeneous(specs::CHEETAH, 7);
    let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
    let q = RangeQuery::new(0, 0, 3, 2);
    let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
    let (_, ws) = traced_solve(&FordFulkersonBasic, &inst);
    assert_eq!(
        ws.recorder().unwrap().count(EventKind::Augment),
        inst.query_size() as u64
    );
}

/// A closure can serve as the sink: every emitted event reaches it, in
/// order, with `SolveStart` first.
#[test]
fn closure_sink_receives_the_event_stream() {
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let mut ws = Workspace::new();
    ws.set_trace_sink(Box::new(move |e: TraceEvent| {
        sink.lock().unwrap().push(e);
    }));
    let inst = table_ii_instance(3, 2);
    let outcome = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
    let events = events.lock().unwrap();
    assert!(matches!(
        events[0],
        TraceEvent::SolveStart { query_size: 6 }
    ));
    let probe_starts = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ProbeStart { .. }))
        .count() as u64;
    assert_eq!(probe_starts, outcome.stats.probes);
    // Disabling returns emits to no-ops.
    drop(events);
    ws.disable_tracing();
    let _ = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
}

fn chaos_batch() -> (SystemConfig, OrthogonalAllocation, Vec<BatchQuery>) {
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let mut queries = Vec::new();
    for k in 0..6usize {
        for s in 0..7usize {
            let q = RangeQuery::new(s % 5, k % 5, 1 + (s + k) % 3, 1 + s % 3);
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros::from_millis((k * 2) as u64),
                buckets: q.buckets(5),
            });
        }
    }
    (system, alloc, queries)
}

/// Retry and degraded events reconcile with the engine's counters, and a
/// health flip is observed exactly once per affected stream.
#[test]
fn engine_fault_events_reconcile_with_stats() {
    let (system, alloc, queries) = chaos_batch();
    let injector = FaultInjector::random_outages(
        7,
        5,
        0.4,
        Micros::from_millis(3),
        Some(Micros::from_millis(4)),
    );
    // One shard drains on its inline lane, so its recorder sees every
    // event of the batch.
    let mut engine = Engine::builder(&system, &alloc)
        .fault_injector(injector)
        .retry_policy(RetryPolicy {
            max_retries: 3,
            backoff: Micros::from_millis(1),
        })
        .degraded_mode(true)
        .tracing(1 << 12)
        .build();
    let _ = engine.submit_batch(&queries);
    let rec = engine
        .shard_recorder(0)
        .expect("tracing installs a recorder");
    assert_eq!(rec.count(EventKind::RetryScheduled), engine.stats().retries);
    assert_eq!(
        rec.count(EventKind::DegradedServe),
        engine.stats().degraded_solves
    );
    // The outage and the recovery are both health transitions; every
    // stream that submits across them sees each at most once.
    let transitions = rec.count(EventKind::HealthTransition);
    assert!(transitions > 0);
    assert!(transitions <= 2 * 7);
}

/// `metrics_snapshot()` exposes p50/p95/p99 and round-trips through both
/// export formats.
#[test]
fn metrics_snapshot_quantiles_and_round_trip() {
    let (system, alloc, queries) = chaos_batch();
    let mut engine = Engine::builder(&system, &alloc)
        .shards(2)
        .tracing(1 << 12)
        .build();
    let results = engine.submit_batch(&queries);
    assert!(results.iter().all(Result::is_ok));

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.stats.queries, queries.len() as u64);
    assert_eq!(snap.shards, 2);
    assert_eq!(snap.solve_latency_us.count, queries.len() as u64);
    assert!(snap.solve_latency_us.p50 > 0);
    assert!(snap.solve_latency_us.p95 >= snap.solve_latency_us.p50);
    assert!(snap.solve_latency_us.p99 >= snap.solve_latency_us.p95);
    assert!(snap.probes_per_solve.p50 > 0);
    assert!(snap.turnaround_us.p99 >= snap.turnaround_us.p50);
    // Quantile summaries derive from the histograms in the same snapshot.
    assert_eq!(
        snap.solve_latency_us,
        snap.histograms.solve_latency_us.summary()
    );

    let reg = snap.to_registry();
    assert_eq!(reg.counter("rds_queries_total"), Some(42));
    assert_eq!(reg.gauge("rds_shards"), Some(2));
    assert_eq!(
        reg.histogram("rds_solve_latency_us").unwrap().count(),
        queries.len() as u64
    );

    // Acceptance criterion: Prometheus and JSON exports parse back into
    // the identical registry.
    let prom = MetricsRegistry::parse_prometheus(&snap.to_prometheus()).unwrap();
    assert_eq!(prom, reg);
    let json = MetricsRegistry::parse_json(&snap.to_json()).unwrap();
    assert_eq!(json, reg);
}

/// Regression: quantile estimates are clamped to the observed sample
/// range, so a lone sample reports itself — not its bucket's upper
/// bound — at every quantile, including through the engine's latency
/// summaries.
#[test]
fn quantiles_clamp_to_observed_samples() {
    let mut h = Histogram::new();
    h.record(100); // bucket [64,128): the bound 127 must not leak out
    let s = h.summary();
    assert_eq!((s.p50, s.p95, s.p99), (100, 100, 100));
    assert_eq!(s.mean, 100);

    // Engine path: a single-query batch leaves one sample in the solve
    // latency histogram, so all its quantiles coincide with that sample.
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let mut engine = Engine::builder(&system, &alloc).build();
    let results = engine.submit_batch(&[BatchQuery {
        stream: 0,
        arrival: Micros::ZERO,
        buckets: RangeQuery::new(0, 0, 2, 2).buckets(5),
    }]);
    assert!(results[0].is_ok());
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.solve_latency_us.count, 1);
    assert_eq!(snap.solve_latency_us.p50, snap.solve_latency_us.p99);
    assert_eq!(
        snap.histograms.solve_latency_us.min_sample(),
        Some(snap.solve_latency_us.p50)
    );
}

fn reuse_batch() -> (SystemConfig, OrthogonalAllocation, Vec<BatchQuery>) {
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let mut queries = Vec::new();
    for (k, &col) in [0usize, 1, 0, 2, 1, 0].iter().enumerate() {
        for s in 0..4usize {
            // Per stream: a fixed-size window sliding over a repeating
            // column cycle, with arrivals spaced far enough apart that
            // loads drain — revisited positions hit the schedule cache,
            // new positions delta-patch the previous flow.
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros::from_millis(k as u64 * 60_000),
                buckets: RangeQuery::new(s % 4, col, 2, 2).buckets(5),
            });
        }
    }
    (system, alloc, queries)
}

/// A warm engine (delta solving + schedule cache) returns the same
/// outcomes as a cold one, and its results and reuse counters are
/// invariant to the shard count.
#[test]
fn warm_engine_reuse_is_shard_invariant() {
    let (system, alloc, queries) = reuse_batch();
    let run = |shards: usize| {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary).reuse(ReusePolicy {
                    warm_start: true,
                    cache_capacity: 4,
                }),
            )
            .shards(shards)
            .build();
        let outcomes: Vec<(Micros, Micros)> = engine
            .submit_batch(&queries)
            .into_iter()
            .map(|r| {
                let o = r.unwrap();
                (o.outcome.response_time, o.completion)
            })
            .collect();
        (outcomes, engine.stats().reuse)
    };
    let (outcomes, reuse) = run(1);
    // Column cycle 0,1,0,2,1,0 per stream: three first-visits (miss),
    // three revisits (hit), and the two first-visits after a solve are
    // delta patches — times four streams.
    assert_eq!(reuse.cache_hits, 12);
    assert_eq!(reuse.cache_misses, 12);
    assert_eq!(reuse.delta_patches, 8);
    assert_eq!(reuse.delta_fallbacks, 0);
    for shards in [2usize, 3, 4] {
        assert_eq!(run(shards), (outcomes.clone(), reuse), "{shards} shards");
    }
    // A cold engine over the same batch agrees on every outcome and
    // reports zero reuse.
    let mut cold = Engine::builder(&system, &alloc).shards(2).build();
    let cold_outcomes: Vec<(Micros, Micros)> = cold
        .submit_batch(&queries)
        .into_iter()
        .map(|r| {
            let o = r.unwrap();
            (o.outcome.response_time, o.completion)
        })
        .collect();
    assert_eq!(cold_outcomes, outcomes);
    assert_eq!(cold.stats().reuse, ReuseCounters::default());
}

/// Without `EngineBuilder::tracing`, the engine still measures
/// histograms but reports zero trace events — the tracer stays a no-op.
#[test]
fn untraced_engine_has_histograms_but_no_events() {
    let (system, alloc, queries) = chaos_batch();
    let mut engine = Engine::builder(&system, &alloc).shards(2).build();
    let _ = engine.submit_batch(&queries);
    assert!(engine.shard_recorder(0).is_none());
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.solve_latency_us.count, queries.len() as u64);
    assert!(snap.probes_per_solve.p99 > 0);
}

/// Every engine counter is a function of the queries alone, not of how
/// the engine runs them: a chaos batch under faults plus a warm reuse
/// batch give the same `EngineStats` at 1, 2 and 4 shards, fused or not.
/// Only wall time and the fused-drain counts may differ.
#[test]
fn counters_are_invariant_across_shard_counts_and_fuse() {
    let (system, alloc, chaos) = chaos_batch();
    // Fresh streams for the reuse batch, after the chaos batch's.
    let (_, _, mut reuse) = reuse_batch();
    for q in &mut reuse {
        q.stream += 7;
    }
    let injector = FaultInjector::random_outages(
        42,
        5,
        0.4,
        Micros::from_millis(3),
        Some(Micros::from_millis(4)),
    );
    let run = |shards: usize, fuse: bool| {
        let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
            .reuse(ReusePolicy {
                warm_start: true,
                cache_capacity: 4,
            })
            .batch_fuse(fuse)
            .parallelism(2);
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(spec)
            .shards(shards)
            .fault_injector(injector.clone())
            .retry_policy(RetryPolicy {
                max_retries: 1,
                backoff: Micros::from_millis(1),
            })
            .degraded_mode(true)
            .build();
        let _ = engine.submit_batch(&chaos);
        let _ = engine.submit_batch(&reuse);
        let mut stats = *engine.stats();
        if fuse && shards < 4 {
            assert!(
                stats.fused_batches > 0,
                "{shards} shards: fused drain engaged"
            );
        }
        stats.elapsed = Duration::ZERO;
        stats.fused_batches = 0;
        stats.fused_queries = 0;
        stats
    };
    let baseline = run(1, false);
    assert_eq!(baseline.queries, (chaos.len() + reuse.len()) as u64);
    assert_eq!(baseline.batches, 2);
    assert!(baseline.retries > 0, "the outage forced replanning");
    assert!(
        baseline.degraded_solves > 0,
        "the outage forced degraded serves"
    );
    assert!(
        baseline.reuse.cache_hits >= 12,
        "the reuse batch hit the cache"
    );
    for (shards, fuse) in [(2, false), (4, false), (1, true), (2, true), (4, true)] {
        assert_eq!(run(shards, fuse), baseline, "{shards} shards, fuse={fuse}");
    }
}
