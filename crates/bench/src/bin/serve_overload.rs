//! Online serving under load: sustained throughput and tail latency of
//! [`Engine::serve`] at 0.5x and 2x of the engine's measured solve
//! capacity, on the paper's Table II system.
//!
//! The capacity baseline comes from a batch run of the same query mix.
//! The low-load phase is a closed loop paced to half that rate — queue
//! depth never exceeds one, so *any* shedding there is a regression (the
//! CI gate asserts `shed_rate == 0`). The overload phase is an open loop
//! at twice the capacity against a small bounded queue: admission
//! control sheds the excess and the queue bound caps waiting, keeping
//! the tail flat (the CI gate asserts `p99 <= 5 * p50` turnaround).
//!
//! ```text
//! cargo run --release -p rds-bench --bin serve_overload -- [--queries 3000] [--shards 2]
//! ```
//!
//! Writes `results/serve_overload.txt` and `BENCH_serve_overload.json`.

use rds_core::engine::{BatchQuery, Engine};
use rds_core::obs::metrics::Histogram;
use rds_core::obs::span::RejectReason;
use rds_core::pr::PushRelabelBinary;
use rds_core::serve::{PriorityClass, QueryRequest, ServeConfig, ServeStats};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::time::Micros;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const STREAMS: usize = 8;

/// The serving query mix: sliding windows over the 7x7 grid, sized so a
/// solve does non-trivial work.
fn query_at(k: usize) -> Vec<Bucket> {
    let r = 2 + k % 3;
    let c = 2 + (k / 3) % 3;
    RangeQuery::new(k % (7 - r + 1), (k / 7) % (7 - c + 1), r, c).buckets(7)
}

fn request_at(k: usize) -> QueryRequest {
    let mut req = QueryRequest::new(k % STREAMS, query_at(k));
    if k.is_multiple_of(3) {
        req = req.class(PriorityClass::Batch);
    }
    req
}

/// Solve capacity in queries/sec: the same mix pushed through
/// `submit_batch`, no queueing in the way.
fn measure_capacity(
    system: &rds_storage::model::SystemConfig,
    alloc: &OrthogonalAllocation,
    shards: usize,
    queries: usize,
) -> f64 {
    let mut engine = Engine::builder(system, alloc)
        .shards(shards)
        .build_with(PushRelabelBinary);
    let batch: Vec<BatchQuery> = (0..queries)
        .map(|k| BatchQuery {
            stream: k % STREAMS,
            arrival: Micros::ZERO,
            buckets: query_at(k),
        })
        .collect();
    let started = Instant::now();
    let results = engine.submit_batch(&batch);
    let elapsed = started.elapsed();
    assert!(results.iter().all(Result::is_ok), "infeasible query in mix");
    queries as f64 / elapsed.as_secs_f64()
}

struct Phase {
    target_qps: f64,
    stats: ServeStats,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

fn turnaround_quantiles(stats: &ServeStats) -> (u64, u64, u64) {
    let mut all = Histogram::default();
    for class in PriorityClass::ALL {
        all.merge(&stats.classes[class as usize].turnaround_us);
    }
    (all.quantile(0.50), all.quantile(0.99), all.quantile(0.999))
}

/// Closed loop at `target_qps`: one request in flight, paced by absolute
/// deadlines — queue depth stays at most one, so rejections cannot
/// legitimately happen.
fn run_low(
    system: &rds_storage::model::SystemConfig,
    alloc: &OrthogonalAllocation,
    shards: usize,
    queries: usize,
    target_qps: f64,
) -> Phase {
    let mut engine = Engine::builder(system, alloc)
        .shards(shards)
        .build_with(PushRelabelBinary);
    let interarrival = Duration::from_secs_f64(1.0 / target_qps);
    let report = engine.serve(
        ServeConfig::default().queue_capacity(64).shed_watermark(32),
        |h| {
            let start = Instant::now();
            for k in 0..queries {
                let due = start + interarrival.mul_f64(k as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if h.submit(request_at(k)).is_ok() {
                    // Closed loop: wait for the response before pacing on.
                    h.recv();
                }
            }
        },
    );
    let (p50_us, p99_us, p999_us) = turnaround_quantiles(&report.stats);
    Phase {
        target_qps,
        stats: report.stats,
        p50_us,
        p99_us,
        p999_us,
    }
}

/// Open loop at `target_qps` against a small bounded queue: submissions
/// never wait for responses, so sustained overload exercises QueueFull
/// and batch-class shedding while the queue bound caps turnaround.
fn run_overload(
    system: &rds_storage::model::SystemConfig,
    alloc: &OrthogonalAllocation,
    shards: usize,
    queries: usize,
    target_qps: f64,
) -> Phase {
    let mut engine = Engine::builder(system, alloc)
        .shards(shards)
        .build_with(PushRelabelBinary);
    let interarrival = Duration::from_secs_f64(1.0 / target_qps);
    let report = engine.serve(
        ServeConfig::default().queue_capacity(32).shed_watermark(16),
        |h| {
            let start = Instant::now();
            for k in 0..queries {
                let due = start + interarrival.mul_f64(k as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let _ = h.submit(request_at(k));
            }
        },
    );
    let (p50_us, p99_us, p999_us) = turnaround_quantiles(&report.stats);
    Phase {
        target_qps,
        stats: report.stats,
        p50_us,
        p99_us,
        p999_us,
    }
}

fn phase_json(p: &Phase) -> String {
    format!(
        "{{\n    \"target_qps\": {target:.1},\n    \"completed_qps\": {qps:.1},\n    \"submitted\": {submitted},\n    \"completed\": {completed},\n    \"rejected_queue_full\": {full},\n    \"rejected_shed\": {shed},\n    \"shed_rate\": {rate:.6},\n    \"max_queue_depth\": {depth},\n    \"p50_us\": {p50},\n    \"p99_us\": {p99},\n    \"p999_us\": {p999}\n  }}",
        target = p.target_qps,
        qps = p.stats.completed_per_sec(),
        submitted = p.stats.submitted,
        completed = p.stats.completed,
        full = p.stats.rejected_for(RejectReason::QueueFull),
        shed = p.stats.rejected_for(RejectReason::ShedLowPriority),
        rate = p.stats.shed_rate(),
        depth = p.stats.max_queue_depth,
        p50 = p.p50_us,
        p99 = p.p99_us,
        p999 = p.p999_us,
    )
}

fn main() -> ExitCode {
    let mut queries = 3000usize;
    let mut shards = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (arg.as_str(), value) {
            ("--queries", Some(v)) => queries = (v as usize).max(16),
            ("--shards", Some(v)) => shards = (v as usize).max(1),
            _ => {
                eprintln!("usage: serve_overload [--queries K] [--shards S]");
                return ExitCode::FAILURE;
            }
        }
    }

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();

    let capacity = measure_capacity(&system, &alloc, shards, queries);
    // Cap the paced phases so the whole bench stays CI-sized regardless
    // of the machine's measured capacity.
    let low_count = queries.min((capacity * 0.5 * 4.0) as usize).max(64);
    let over_count = queries.min((capacity * 2.0 * 4.0) as usize).max(64);
    let low = run_low(&system, &alloc, shards, low_count, capacity * 0.5);
    let over = run_overload(&system, &alloc, shards, over_count, capacity * 2.0);

    let report = format!(
        "# serve_overload — paper Table II system, {shards} shards, {STREAMS} streams\n\
         #\n\
         # capacity: {queries} queries through submit_batch (no queueing).\n\
         # low:      closed loop at 0.5x capacity; queue depth <= 1, so any\n\
         #           shedding is a regression.\n\
         # overload: open loop at 2x capacity, queue_capacity 32, batch-class\n\
         #           shed watermark 16; the queue bound keeps the tail flat.\n\
         #\n\
         capacity_qps        {capacity:.0}\n\
         low_target_qps      {lt:.0}\n\
         low_completed_qps   {lq:.0}\n\
         low_shed_rate       {lr:.4}\n\
         low_p50_us          {lp50}\n\
         low_p99_us          {lp99}\n\
         over_target_qps     {ot:.0}\n\
         over_completed_qps  {oq:.0}\n\
         over_shed_rate      {or:.4}\n\
         over_p50_us         {op50}\n\
         over_p99_us         {op99}\n\
         over_p999_us        {op999}\n",
        lt = low.target_qps,
        lq = low.stats.completed_per_sec(),
        lr = low.stats.shed_rate(),
        lp50 = low.p50_us,
        lp99 = low.p99_us,
        ot = over.target_qps,
        oq = over.stats.completed_per_sec(),
        or = over.stats.shed_rate(),
        op50 = over.p50_us,
        op99 = over.p99_us,
        op999 = over.p999_us,
    );
    print!("{report}");

    let json = format!(
        "{{\n  \"bench\": \"serve_overload\",\n  \"queries\": {queries},\n  \"shards\": {shards},\n  \"streams\": {STREAMS},\n  \"capacity_qps\": {capacity:.1},\n  \"low\": {low_json},\n  \"overload\": {over_json}\n}}\n",
        low_json = phase_json(&low),
        over_json = phase_json(&over),
    );

    let write = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/serve_overload.txt", &report))
        .and_then(|()| std::fs::write("BENCH_serve_overload.json", &json));
    if let Err(e) = write {
        eprintln!("could not write serve_overload outputs: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote results/serve_overload.txt and BENCH_serve_overload.json");
    ExitCode::SUCCESS
}
