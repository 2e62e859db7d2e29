//! Drives generated traffic through the engine's public entry points and
//! times it from the benchmark's side.
//!
//! Online rungs run `Engine::serve` on the virtual clock. One generator
//! thread (the serve closure's) submits each request when it is due,
//! sleeping until shortly before and then spinning, and claims and
//! stamps responses while it spins. Turnaround is measured from
//! when a request was *due*, so a generator stall counts against the
//! requests it delayed. Batch traffic calls `Engine::submit_batch` in a
//! closed loop.

use crate::affinity::Placement;
use crate::stats::Accounting;
use crate::workload::{Request, Rung, Traffic, Workload};
use replicated_retrieval::core::engine::{BatchQuery, Engine};
use replicated_retrieval::core::serve::{
    QueryRequest, Rejected, ServeConfig, ServeResponse, ServeStats,
};
use replicated_retrieval::core::session::ReusePolicy;
use replicated_retrieval::core::spec::{AnySolver, SolverKind, SolverSpec};
use replicated_retrieval::decluster::allocation::ReplicaMap;
use std::time::{Duration, Instant};

/// The engine every workload runs on.
pub type BenchEngine<'a> = Engine<'a, ReplicaMap, AnySolver>;

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);

/// Solver-phase trace events each shard keeps when tracing.
const TRACE_EVENTS: usize = 4096;

/// The deployed configuration: Algorithm 6, warm reuse, fused batches,
/// one shard, and a pool of `pool_threads` lane workers (the shard thread
/// is the other lane), plus the workload's objective and fault schedule.
/// `traced` installs the engine's solver-phase trace recorder.
pub fn build_engine(w: &Workload, pool_threads: usize, traced: bool) -> BenchEngine<'_> {
    let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
        .reuse(ReusePolicy::warm())
        .batch_fuse(true)
        .parallelism(pool_threads)
        .objective(w.objective);
    let mut builder = Engine::builder(&w.system, &w.alloc)
        .solver_spec(spec)
        .shards(1);
    if let Some(faults) = &w.faults {
        builder = builder.fault_injector(faults.clone());
    }
    if traced {
        builder = builder.tracing(TRACE_EVENTS);
    }
    builder.build()
}

/// The engine's own request for generated request `r`.
pub fn query_request(w: &Workload, r: &Request) -> QueryRequest {
    QueryRequest::new(r.stream, w.queries[r.query].clone())
        .class(r.class)
        .arriving_at(r.arrival)
}

/// The batch form of generated request `r`.
pub fn batch_query(w: &Workload, r: &Request) -> BatchQuery {
    BatchQuery {
        stream: r.stream,
        arrival: r.arrival,
        buckets: w.queries[r.query].clone(),
    }
}

/// What one online rung measured.
pub struct RungRun {
    pub name: &'static str,
    pub overload: bool,
    pub rate_qps: f64,
    pub acct: Accounting,
    pub rejected_queue_full: u64,
    pub rejected_shed: u64,
    /// Per request, in generation order: the modeled response time (µs)
    /// of a successful answer.
    pub responses: Vec<Option<u64>>,
    /// Per request: due → response received, µs; `None` when rejected
    /// or failed.
    pub turnaround_us: Vec<Option<f64>>,
    /// Per request: how late the generator submitted it, µs.
    pub late_us: Vec<f64>,
    /// Per request: time inside `ServeHandle::submit`, µs (traced only).
    pub admit_us: Vec<f64>,
    /// Rung start → last response received.
    pub wall: Duration,
    pub stats: ServeStats,
}

/// Runs one open-loop rung through `Engine::serve` on the virtual clock.
/// `traced` turns on the serve loop's query spans and times each
/// admission.
///
/// With a `placement`, the generator runs on its own CPU for the rung;
/// the caller must already be pinned to the engine's CPUs, so the serve
/// workers spawned here inherit them.
pub fn run_rung(
    engine: &mut BenchEngine<'_>,
    w: &Workload,
    rung: &Rung,
    traced: bool,
    placement: Option<&Placement>,
) -> RungRun {
    let n = rung.requests.len();
    let mut config = ServeConfig::default()
        .virtual_time()
        .queue_capacity(rung.queue_capacity)
        .record_spans(traced);
    if let Some(watermark) = rung.shed_watermark {
        config = config.shed_watermark(watermark);
    }
    struct Generated {
        start: Instant,
        /// Request index of each admitted ticket, in ticket order.
        k_of_ticket: Vec<usize>,
        rejections: Vec<Rejected>,
        late_us: Vec<f64>,
        admit_us: Vec<f64>,
        received: Vec<(u64, Instant, Option<u64>)>,
    }
    let report = engine.serve(config, |h| {
        if let Some(p) = placement {
            p.generator();
        }
        let stamp = |resp: ServeResponse| {
            let rt = resp
                .result
                .ok()
                .map(|o| o.outcome.response_time.as_micros());
            (resp.ticket.0, Instant::now(), rt)
        };
        let mut g = Generated {
            start: Instant::now() + Duration::from_millis(2),
            k_of_ticket: Vec::with_capacity(n),
            rejections: Vec::new(),
            late_us: Vec::with_capacity(n),
            admit_us: Vec::with_capacity(if traced { n } else { 0 }),
            received: Vec::with_capacity(n),
        };
        for (k, r) in rung.requests.iter().enumerate() {
            let req = query_request(w, r);
            let due = g.start + rung.due(k);
            // Wait for the due time: sleep until SPIN before it, then
            // spin, yielding the core to the engine's threads and
            // claiming responses as they arrive, so each is stamped
            // within one spin of its delivery.
            loop {
                while let Some(resp) = h.try_recv() {
                    g.received.push(stamp(resp));
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if due - now > SPIN {
                    std::thread::sleep(due - now - SPIN);
                } else {
                    std::thread::yield_now();
                }
            }
            let sent = Instant::now();
            let admitted = h.submit(req);
            if traced {
                g.admit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            g.late_us.push((sent - due).as_secs_f64() * 1e6);
            match admitted {
                Ok(_) => g.k_of_ticket.push(k),
                Err(e) => g.rejections.push(e),
            }
        }
        // Closing admission lets the workers drain and hang up, which
        // ends the loop below once every answer is claimed.
        h.shutdown();
        while let Some(resp) = h.recv() {
            g.received.push(stamp(resp));
        }
        if let Some(p) = placement {
            p.engine();
        }
        g
    });
    let g = report.output;
    let mut acct = Accounting {
        sent: n as u64,
        admitted: g.k_of_ticket.len() as u64,
        rejected: g.rejections.len() as u64,
        // Responses nobody claimed would break exactly-once from the
        // caller's point of view; count them as duplicates (never seen).
        duplicates: report.unclaimed.len() as u64,
        ..Accounting::default()
    };
    let mut responses = vec![None; n];
    let mut turnaround_us = vec![None; n];
    let mut seen = vec![false; n];
    let mut last = g.start;
    for &(ticket, at, rt) in &g.received {
        // Tickets are issued 1, 2, … in admission order by the single
        // generator, so ticket t answers the t-th admitted request.
        let Some(&k) = (ticket as usize)
            .checked_sub(1)
            .and_then(|i| g.k_of_ticket.get(i))
        else {
            acct.duplicates += 1;
            continue;
        };
        if std::mem::replace(&mut seen[k], true) {
            acct.duplicates += 1;
            continue;
        }
        acct.answered += 1;
        last = last.max(at);
        match rt {
            Some(us) => {
                responses[k] = Some(us);
                let due = g.start + rung.due(k);
                turnaround_us[k] = Some(at.saturating_duration_since(due).as_secs_f64() * 1e6);
            }
            None => acct.failed += 1,
        }
    }
    let count =
        |pred: fn(&Rejected) -> bool| g.rejections.iter().filter(|e| pred(e)).count() as u64;
    RungRun {
        name: rung.name,
        overload: rung.overload,
        rate_qps: rung.rate_qps,
        acct,
        rejected_queue_full: count(|e| matches!(e, Rejected::QueueFull { .. })),
        rejected_shed: count(|e| matches!(e, Rejected::ShedLowPriority { .. })),
        responses,
        turnaround_us,
        late_us: g.late_us,
        admit_us: g.admit_us,
        wall: last.saturating_duration_since(g.start),
        stats: report.stats,
    }
}

/// What the closed batch loop measured.
pub struct BatchRun {
    /// Per query, in request order: the modeled response time (µs).
    pub responses: Vec<Option<u64>>,
    /// Per query: wall time of the `submit_batch` call that answered it.
    pub turnaround_us: Vec<f64>,
    pub wall: Duration,
    pub acct: Accounting,
}

/// Submits `batch`-query batches back to back for `duration`.
pub fn run_batches(
    engine: &mut BenchEngine<'_>,
    w: &Workload,
    batch: usize,
    duration: Duration,
) -> BatchRun {
    let mut run = BatchRun {
        responses: Vec::new(),
        turnaround_us: Vec::new(),
        wall: Duration::ZERO,
        acct: Accounting::default(),
    };
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < duration {
        let queries: Vec<BatchQuery> = (k..k + batch)
            .map(|i| batch_query(w, &w.batch_request(i)))
            .collect();
        let t0 = Instant::now();
        let results = engine.submit_batch(&queries);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        for r in results {
            let rt = r.ok().map(|o| o.outcome.response_time.as_micros());
            run.acct.failed += u64::from(rt.is_none());
            run.responses.push(rt);
            run.turnaround_us.push(us);
        }
        k += batch;
    }
    run.wall = start.elapsed();
    run.acct.sent = k as u64;
    run.acct.admitted = k as u64;
    run.acct.answered = run.responses.len() as u64;
    run
}

/// Reference answers for `requests`, computed outside any timed path by
/// `submit_batch` on a fresh engine with the same configuration, in
/// chunks to bound memory.
pub fn reference(w: &Workload, pool_threads: usize, requests: &[Request]) -> Vec<Option<u64>> {
    let mut engine = build_engine(w, pool_threads, false);
    let mut out = Vec::with_capacity(requests.len());
    for chunk in requests.chunks(4096) {
        let queries: Vec<BatchQuery> = chunk.iter().map(|r| batch_query(w, r)).collect();
        out.extend(
            engine
                .submit_batch(&queries)
                .into_iter()
                .map(|r| r.ok().map(|o| o.outcome.response_time.as_micros())),
        );
    }
    out
}

/// Warm-up requests per set-up for online traffic; batch traffic warms
/// up with one batch.
const WARM_UP: usize = 2_000;

/// Set-up warm-up: pushes requests through the serve path (or one batch
/// through `submit_batch`) on streams reserved for warm-up, so threads,
/// lanes and buffers exist before the first timed request.
pub fn warm_up(engine: &mut BenchEngine<'_>, w: &Workload) {
    let count = match w.traffic {
        Traffic::Online { .. } => WARM_UP,
        Traffic::Batch { batch } => batch,
    };
    let requests: Vec<Request> = (0..count)
        .map(|k| {
            let r = w.batch_request(k);
            Request {
                stream: w.warmup_stream(r.stream),
                ..r
            }
        })
        .collect();
    match w.traffic {
        Traffic::Online { .. } => {
            let config = ServeConfig::default()
                .virtual_time()
                .queue_capacity(count)
                .record_spans(false);
            let report = engine.serve(config, |h| {
                for r in &requests {
                    h.submit(query_request(w, r))
                        .expect("warm-up queue holds every request");
                }
            });
            assert_eq!(report.stats.errors, 0, "warm-up request failed");
        }
        Traffic::Batch { .. } => {
            let queries: Vec<BatchQuery> = requests.iter().map(|r| batch_query(w, r)).collect();
            let results = engine.submit_batch(&queries);
            assert!(results.iter().all(Result::is_ok), "warm-up query failed");
        }
    }
}
