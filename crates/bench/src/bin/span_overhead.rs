//! Span-channel overhead: serve throughput with query spans recorded
//! ([`ServeConfig::record_spans`] on, the default) versus the identical
//! workload with the span channel off, on the paper's Table II system.
//!
//! Both phases run the deterministic virtual clock, so the workers drain
//! as fast as the solver allows and wall time measures solve + span
//! cost with no pacing in the way. Each phase runs `--repeat` rounds on
//! a fresh engine and keeps the fastest round; the CI gate asserts the
//! relative overhead stays within 5%. The two runs must also produce
//! bit-identical response times — spans are observation only.
//!
//! ```text
//! cargo run --release -p rds-bench --bin span_overhead -- [--queries 2000] [--shards 2] [--repeat 5]
//! ```
//!
//! Writes `results/span_overhead.txt` and `BENCH_span_overhead.json`.

use rds_core::engine::Engine;
use rds_core::pr::PushRelabelBinary;
use rds_core::serve::{QueryRequest, ServeConfig};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::time::Micros;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const STREAMS: usize = 8;

/// Sliding windows over the 7x7 grid at the sizes the paper's Table II
/// experiments stress (9–25 buckets), so each solve does representative
/// work and the fixed per-query span cost is measured against it.
fn query_at(k: usize) -> Vec<Bucket> {
    let r = 3 + k % 3;
    let c = 3 + (k / 3) % 3;
    RangeQuery::new(k % (7 - r + 1), (k / 7) % (7 - c + 1), r, c).buckets(7)
}

/// One measured round: a fresh engine serves the whole mix on the
/// virtual clock; returns wall time and the per-ticket response times.
fn run_round(
    system: &rds_storage::model::SystemConfig,
    alloc: &OrthogonalAllocation,
    shards: usize,
    queries: usize,
    spans: bool,
) -> (Duration, Vec<Micros>) {
    let mut engine = Engine::builder(system, alloc)
        .shards(shards)
        .build_with(PushRelabelBinary);
    let config = ServeConfig::default()
        .virtual_time()
        .queue_capacity(queries.max(1))
        .record_spans(spans);
    let started = Instant::now();
    let report = engine.serve(config, |h| {
        for k in 0..queries {
            h.submit(
                QueryRequest::new(k % STREAMS, query_at(k))
                    .arriving_at(Micros::from_millis((k / STREAMS) as u64)),
            )
            .expect("bounded mix never rejects");
        }
    });
    let elapsed = started.elapsed();
    assert_eq!(report.stats.completed as usize, queries);
    assert_eq!(report.stats.errors, 0);
    let mut by_ticket: Vec<_> = report
        .unclaimed
        .iter()
        .map(|r| {
            (
                r.ticket,
                r.result
                    .as_ref()
                    .expect("feasible mix")
                    .outcome
                    .response_time,
            )
        })
        .collect();
    by_ticket.sort();
    (elapsed, by_ticket.into_iter().map(|(_, t)| t).collect())
}

fn main() -> ExitCode {
    let mut queries = 2000usize;
    let mut shards = 2usize;
    let mut repeat = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (arg.as_str(), value) {
            ("--queries", Some(v)) => queries = (v as usize).max(16),
            ("--shards", Some(v)) => shards = (v as usize).max(1),
            ("--repeat", Some(v)) => repeat = (v as usize).max(1),
            _ => {
                eprintln!("usage: span_overhead [--queries K] [--shards S] [--repeat R]");
                return ExitCode::FAILURE;
            }
        }
    }

    let system = rds_storage::experiments::paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();

    // Interleave the two phases (off, on, off, on, …) so drift in machine
    // load hits both sides equally; keep the fastest round of each.
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut reference: Option<Vec<Micros>> = None;
    for _ in 0..repeat {
        for spans in [false, true] {
            let (elapsed, times) = run_round(&system, &alloc, shards, queries, spans);
            match &reference {
                None => reference = Some(times),
                Some(want) => {
                    assert_eq!(&times, want, "span recording must not change solve results")
                }
            }
            let best = if spans { &mut best_on } else { &mut best_off };
            *best = (*best).min(elapsed);
        }
    }

    let qps_off = queries as f64 / best_off.as_secs_f64();
    let qps_on = queries as f64 / best_on.as_secs_f64();
    let overhead = (best_on.as_secs_f64() - best_off.as_secs_f64()) / best_off.as_secs_f64();

    let report = format!(
        "# span_overhead — paper Table II system, {shards} shards, {STREAMS} streams\n\
         #\n\
         # {queries} queries through Engine::serve on the virtual clock,\n\
         # best of {repeat} interleaved rounds per side. `off` disables the\n\
         # span channel (ServeConfig::record_spans(false)); `on` is the\n\
         # default full pipeline: span checkout, phase marks, flight-\n\
         # recorder retention. Response times are asserted identical.\n\
         #\n\
         spans_off_qps   {qps_off:.0}\n\
         spans_on_qps    {qps_on:.0}\n\
         overhead        {overhead:.4}\n",
    );
    print!("{report}");

    let json = format!(
        "{{\n  \"bench\": \"span_overhead\",\n  \"queries\": {queries},\n  \"shards\": {shards},\n  \"streams\": {STREAMS},\n  \"repeat\": {repeat},\n  \"spans_off_qps\": {qps_off:.1},\n  \"spans_on_qps\": {qps_on:.1},\n  \"overhead\": {overhead:.4}\n}}\n",
    );

    let write = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/span_overhead.txt", &report))
        .and_then(|()| std::fs::write("BENCH_span_overhead.json", &json));
    if let Err(e) = write {
        eprintln!("could not write span_overhead outputs: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote results/span_overhead.txt and BENCH_span_overhead.json");
    ExitCode::SUCCESS
}
