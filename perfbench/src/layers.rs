//! Per-layer metrics of the traced run.
//!
//! The serve layer is read off the traced pass itself (admission timed
//! around each `ServeHandle::submit`, the engine's own serve counters).
//! Every lower layer is measured by replaying the workload's generated
//! requests through that layer's public functions, timed from here:
//! sessions (`SessionState::submit_with_health`), the engine's batch
//! drain (`Engine::submit_batch`), network construction
//! (`RetrievalInstance::build_with_health`), the kernel
//! (`RetrievalSolver::solve_in`, sequential and parallel Algorithm 6) and
//! refinement (`SolverSpec::solve` with and without `MinTotalLoad`).

use crate::drive::{self, RungRun};
use crate::replay::{replay_sessions, Captured};
use crate::run::{Checks, Host, Pass};
use crate::spec::TIMED_LAYERS;
use crate::stats::{self, ratio};
use crate::workload::{Request, Traffic, Workload, WorkloadId};
use replicated_retrieval::core::engine::BatchQuery;
use replicated_retrieval::core::network::RetrievalInstance;
use replicated_retrieval::core::parallel::ParallelPushRelabelBinary;
use replicated_retrieval::core::pr::PushRelabelBinary;
use replicated_retrieval::core::solver::RetrievalSolver;
use replicated_retrieval::core::spec::{ScheduleObjective, SolverKind, SolverSpec};
use replicated_retrieval::core::workspace::Workspace;
use replicated_retrieval::flow::parallel::WorkerPool;
use std::time::Instant;

type Metrics = Vec<(&'static str, f64)>;

/// Replay sizes: requests through sessions and the engine, captured
/// instances for network and kernel, instances refined, kernel rounds.
struct Sizes {
    replay: usize,
    capture: usize,
    refine: usize,
    rounds: usize,
    engine_batch: usize,
}

fn sizes(w: &Workload) -> Sizes {
    match w.id {
        WorkloadId::Grid100Batch => Sizes {
            replay: 64,
            capture: 24,
            refine: 4,
            rounds: 3,
            engine_batch: 16,
        },
        _ => Sizes {
            replay: 20_000,
            capture: 2_000,
            refine: 500,
            rounds: 5,
            engine_batch: 64,
        },
    }
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn p99(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), 0.99)
}

/// Serve-layer figures from the traced pass's segments. `session_us` is
/// the session replay's mean submit time: the solve work inside a
/// request's turnaround, which is not serve overhead.
fn serve_layer(pass: &Pass, session_us: f64, m: &mut Metrics) {
    let nominal: Vec<&RungRun> = pass.rungs().filter(|r| !r.overload).collect();
    let overload: Vec<&RungRun> = pass.rungs().filter(|r| r.overload).collect();
    if nominal.is_empty() {
        // Batch traffic never enters the serve loop.
        for name in [
            "serve.admit_us",
            "serve.overhead_us",
            "serve.turnaround_p99_us",
            "serve.gen_late_p99_us",
            "serve.overload_gen_late_p99_us",
            "serve.reject_share.queue_full",
            "serve.reject_share.shed",
            "serve.max_queue_depth",
        ] {
            m.push((name, 0.0));
        }
        return;
    }
    let concat = |rungs: &[&RungRun], f: fn(&RungRun) -> &Vec<f64>| -> Vec<f64> {
        rungs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let admit = concat(&nominal, |r| &r.admit_us);
    // Admission returned → response received, per answered request: the
    // solve plus the serve loop's queueing, wake-ups, lane dispatch and
    // reply delivery. Less the session's own submit time, what remains
    // is serve overhead.
    let after_admit: Vec<f64> = nominal
        .iter()
        .flat_map(|r| {
            r.turnaround_us
                .iter()
                .zip(&r.late_us)
                .zip(&r.admit_us)
                .filter_map(|((t, late), admit)| t.map(|t| t - late - admit))
        })
        .collect();
    m.push(("serve.admit_us", stats::mean(&admit)));
    m.push(("serve.overhead_us", stats::mean(&after_admit) - session_us));
    m.push(("serve.turnaround_p99_us", pass.e2e.p99_us));
    m.push((
        "serve.gen_late_p99_us",
        p99(&concat(&nominal, |r| &r.late_us)),
    ));
    m.push((
        "serve.overload_gen_late_p99_us",
        p99(&concat(&overload, |r| &r.late_us)),
    ));
    let sent: u64 = overload.iter().map(|r| r.acct.sent).sum();
    let full: u64 = overload.iter().map(|r| r.rejected_queue_full).sum();
    let shed: u64 = overload.iter().map(|r| r.rejected_shed).sum();
    m.push((
        "serve.reject_share.queue_full",
        ratio(full as f64, sent as f64),
    ));
    m.push(("serve.reject_share.shed", ratio(shed as f64, sent as f64)));
    let depth = pass
        .rungs()
        .map(|r| r.stats.max_queue_depth)
        .max()
        .unwrap_or(0);
    m.push(("serve.max_queue_depth", depth as f64));
}

/// `Engine::submit_batch` over `requests` in fixed-size batches on a
/// fresh engine: how much of the batch wall time the fused lanes
/// overlapped, and arena allocations per query after the first batch.
fn engine_layer(w: &Workload, host: &Host, requests: &[Request], batch: usize, m: &mut Metrics) {
    let mut engine = drive::build_engine(w, host.pool_threads, false);
    let (mut solve_us, mut wall_us) = (0.0, 0.0);
    let mut allocs_after_warm = None;
    let mut warm_queries = 0;
    for (i, chunk) in requests.chunks(batch).enumerate() {
        let queries: Vec<BatchQuery> = chunk.iter().map(|r| drive::batch_query(w, r)).collect();
        let before = engine.metrics().solve_latency_us.sum();
        let t0 = Instant::now();
        let results = engine.submit_batch(&queries);
        let us = us_since(t0);
        assert!(
            results.iter().all(Result::is_ok),
            "engine replay query failed"
        );
        if i == 0 {
            allocs_after_warm = Some(engine.arena_allocation_events());
            warm_queries = chunk.len();
            continue;
        }
        solve_us += (engine.metrics().solve_latency_us.sum() - before) as f64;
        wall_us += us;
    }
    let stats = engine.stats();
    m.push((
        "engine.fused_share",
        ratio(stats.fused_queries as f64, stats.queries as f64),
    ));
    m.push(("engine.lane_speedup", ratio(solve_us, wall_us)));
    let measured = (requests.len() - warm_queries) as f64;
    let allocs = engine.arena_allocation_events() - allocs_after_warm.unwrap_or(0);
    m.push(("workspace.alloc_events", ratio(allocs as f64, measured)));
}

/// The median over `rounds` of one round's mean time per item, so one
/// disturbed round does not move it.
fn median_round(rounds: usize, mut round: impl FnMut() -> f64) -> f64 {
    let means: Vec<f64> = (0..rounds).map(|_| round()).collect();
    stats::median(&means)
}

/// The max-flow kernel on the captured instances: sequential Algorithm 6
/// in a reused workspace, its work counters, and the parallel solver on
/// the same instances.
fn kernel_layer(
    host: &Host,
    instances: &[(RetrievalInstance, u64)],
    rounds: usize,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let n = instances.len() as f64;
    let mut ws = Workspace::new();
    let (mut probes, mut pushes, mut relabels) = (0u64, 0u64, 0u64);
    let mut first = true;
    let seq_us = median_round(rounds, || {
        let t0 = Instant::now();
        for (inst, want) in instances {
            let out = PushRelabelBinary
                .solve_in(inst, &mut ws)
                .expect("captured instance solves");
            if first {
                probes += out.stats.probes;
                pushes += out.stats.pushes;
                relabels += out.stats.relabels;
                checks.require(out.response_time.as_micros() == *want, || {
                    "kernel replay disagrees with the session".into()
                });
            }
        }
        first = false;
        us_since(t0) / n
    });
    m.push(("kernel.solve_us", seq_us));
    m.push(("kernel.probes", probes as f64 / n));
    m.push(("kernel.pushes", pushes as f64 / n));
    m.push(("kernel.relabels", relabels as f64 / n));
    m.push(("kernel.pushes_per_us", ratio(pushes as f64 / n, seq_us)));

    let threads = host.engine_threads().max(2);
    let solver = ParallelPushRelabelBinary::new(threads);
    let mut ws = Workspace::new();
    ws.set_worker_pool(WorkerPool::new(threads));
    let mut first = true;
    let par_us = median_round(rounds, || {
        let t0 = Instant::now();
        for (inst, want) in instances {
            let out = solver
                .solve_in(inst, &mut ws)
                .expect("captured instance solves");
            if first {
                checks.require(out.response_time.as_micros() == *want, || {
                    "parallel kernel disagrees with the sequential one".into()
                });
            }
        }
        first = false;
        us_since(t0) / n
    });
    m.push(("kernel.par_vs_seq", ratio(seq_us, par_us)));
}

/// Refinement cost: `MinTotalLoad` minus `FirstFeasible` solve time on
/// the same instances, and the cycles canceled per solve.
fn refine_layer(instances: &[(RetrievalInstance, u64)], rounds: usize, m: &mut Metrics) {
    let plain = SolverSpec::new(SolverKind::PushRelabelBinary);
    let refined = plain.objective(ScheduleObjective::MinTotalLoad);
    let n = instances.len() as f64;
    let mut cycles = 0u64;
    let mut first = true;
    let time = |spec: &SolverSpec, cycles: Option<&mut u64>| {
        let t0 = Instant::now();
        let mut total = 0;
        for (inst, _) in instances {
            total += spec
                .solve(inst)
                .expect("captured instance solves")
                .stats
                .refine_cycles;
        }
        if let Some(c) = cycles {
            *c = total;
        }
        us_since(t0) / n
    };
    let diff = median_round(rounds, || {
        let base = time(&plain, None);
        let with = time(&refined, first.then_some(&mut cycles));
        first = false;
        with - base
    });
    m.push(("refine.us", diff));
    m.push(("refine.cycles", cycles as f64 / n));
}

/// Measures every per-layer metric (see `spec::PER_LAYER`).
pub fn measure(
    w: &Workload,
    host: &Host,
    plain: &Pass,
    traced: &Pass,
    checks: &mut Checks,
) -> Metrics {
    let size = sizes(w);
    let requests: Vec<Request> = match &w.traffic {
        Traffic::Online { nominal, .. } => {
            nominal.requests[..size.replay.min(nominal.requests.len())].to_vec()
        }
        Traffic::Batch { .. } => (0..size.replay).map(|k| w.batch_request(k)).collect(),
    };
    let n = requests.len() as f64;
    let mut m = Metrics::new();

    let replay = replay_sessions(w, &requests, size.capture);
    let session_us = stats::mean(&replay.submit_us);
    let c = replay.counters;
    m.push(("session.submit_us", session_us));
    m.push((
        "session.cache_hit_rate",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
    ));
    m.push(("session.delta_share", c.delta_patches as f64 / n));
    m.push(("session.delta_fallback_share", c.delta_fallbacks as f64 / n));
    m.push(("fault.epoch_change_share", replay.epoch_changes as f64 / n));
    m.push(("fault.errors", replay.errors as f64));
    checks.require(replay.errors == 0, || {
        format!("{} session replay errors", replay.errors)
    });

    serve_layer(traced, session_us, &mut m);
    engine_layer(w, host, &requests, size.engine_batch, &mut m);

    let captured: &[Captured] = &replay.captured;
    let mut slots = 0usize;
    let build_us = median_round(size.rounds, || {
        slots = 0;
        let t0 = Instant::now();
        for c in captured {
            slots += std::hint::black_box(c.instance(w)).graph.num_edge_slots();
        }
        us_since(t0) / captured.len() as f64
    });
    m.push(("network.build_us", build_us));
    m.push(("network.edge_slots", slots as f64 / captured.len() as f64));

    let instances: Vec<(RetrievalInstance, u64)> = captured
        .iter()
        .map(|c| (c.instance(w), c.response_us))
        .collect();
    kernel_layer(host, &instances, size.rounds, checks, &mut m);
    refine_layer(
        &instances[..size.refine.min(instances.len())],
        size.rounds,
        &mut m,
    );

    // Shares of the mean per-query time: turnaround over every traced
    // nominal request for online traffic; for batch traffic the engine's
    // thread time per query (wall time per query × engine threads),
    // which lane overlap divides among queries. The remainder is what
    // no layer accounts for — for online traffic chiefly the generator's
    // lateness. Layers are timed in separate replays, so the remainder
    // can come out slightly negative.
    let per_query_us = match w.traffic {
        Traffic::Online { .. } => {
            let turnaround: Vec<f64> = traced
                .rungs()
                .filter(|r| !r.overload)
                .flat_map(|r| r.turnaround_us.iter().flatten().copied())
                .collect();
            stats::mean(&turnaround)
        }
        Traffic::Batch { .. } => traced.e2e.mean_us * host.engine_threads() as f64,
    };
    m.push(("per_query_us", per_query_us));
    for &(layer, share) in TIMED_LAYERS {
        m.push((share, ratio(value(&m, layer), per_query_us)));
    }
    // The top-level layers partition a query's time; network, kernel and
    // refine are nested inside the session submit.
    let attributed: f64 = ["serve.admit_us", "serve.overhead_us", "session.submit_us"]
        .iter()
        .map(|name| value(&m, name))
        .sum();
    m.push(("unattributed_us", per_query_us - attributed));
    m.push((
        "unattributed.share",
        ratio(per_query_us - attributed, per_query_us),
    ));

    let (t, p) = (traced.e2e, plain.e2e);
    m.push(("trace_overhead.qps", t.qps - p.qps));
    m.push(("trace_overhead.p50_us", t.p50_us - p.p50_us));
    m.push(("trace_overhead.p90_us", t.p90_us - p.p90_us));
    m.push(("trace_overhead.slo_share", t.slo_share - p.slo_share));
    m.push((
        "trace_overhead.overload_goodput_qps",
        t.goodput_qps - p.goodput_qps,
    ));

    print_breakdown(&m, per_query_us);
    m
}

/// The value of metric `name` in `m` (0 if absent).
fn value(m: &Metrics, name: &str) -> f64 {
    m.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
}

fn print_breakdown(m: &Metrics, per_query_us: f64) {
    println!("layer breakdown of {per_query_us:.2}us per query:");
    for (name, indent) in [
        ("serve.admit_us", ""),
        ("serve.overhead_us", ""),
        ("session.submit_us", ""),
        ("network.build_us", "  "),
        ("kernel.solve_us", "  "),
        ("refine.us", "  "),
        ("unattributed_us", ""),
    ] {
        let v = value(m, name);
        println!(
            "  {indent}{name:<24} {v:>12.3}us {:>8.2}%",
            100.0 * ratio(v, per_query_us)
        );
    }
}
