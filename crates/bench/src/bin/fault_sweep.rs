//! Fault sweep: response-time degradation versus the fraction of failed
//! disks.
//!
//! For each failure fraction, a seeded [`FaultInjector`] takes a uniform
//! random sample of disks offline at time zero and a fixed query batch is
//! replayed through the degraded-mode [`Engine`]. Replication absorbs
//! small outages by rerouting to surviving replicas (at a response-time
//! cost — fewer disks share the same work); once both replicas of a
//! bucket are gone the engine serves the retrievable subset and reports
//! the rest, which the sweep records as dropped buckets.
//!
//! ```text
//! cargo run --release -p rds-bench --bin fault_sweep -- [--queries 400] [--streams 6] [--seeds 10] [--steps 10]
//! ```

use rds_core::engine::{BatchQuery, Engine};
use rds_core::fault::FaultInjector;
use rds_core::pr::PushRelabelBinary;
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::time::Micros;
use rds_util::SplitMix64;
use std::process::ExitCode;

const GRID: usize = 7;

fn build_queries(seed: u64, total: usize, streams: usize) -> Vec<BatchQuery> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(total);
    let mut t = 0u64;
    for _ in 0..total {
        t += rng.gen_range(500..3_000u64);
        let q = RangeQuery::new(
            rng.gen_range(0..GRID),
            rng.gen_range(0..GRID),
            rng.gen_range(1..4usize),
            rng.gen_range(1..4usize),
        );
        queries.push(BatchQuery {
            stream: rng.gen_range(0..streams),
            arrival: Micros::from_micros(t),
            buckets: q.buckets(GRID),
        });
    }
    queries
}

struct SweepPoint {
    fraction: f64,
    disks_down: usize,
    /// Mean response over fully-served queries, averaged across seeds.
    mean_complete_ms: f64,
    complete: u64,
    degraded: u64,
    dropped_buckets: u64,
    infeasible: u64,
}

fn main() -> ExitCode {
    let mut total = 400usize;
    let mut streams = 6usize;
    let mut seeds = 10u64;
    let mut steps = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (arg.as_str(), value) {
            ("--queries", Some(v)) => total = v as usize,
            ("--streams", Some(v)) => streams = (v as usize).max(1),
            ("--seeds", Some(v)) => seeds = v.max(1),
            ("--steps", Some(v)) => steps = (v as usize).max(1),
            _ => {
                eprintln!("usage: fault_sweep [--queries K] [--streams S] [--seeds R] [--steps T]");
                return ExitCode::FAILURE;
            }
        }
    }

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let n = system.num_disks();
    let queries = build_queries(0x5EED, total, streams);

    let mut points: Vec<SweepPoint> = Vec::with_capacity(steps + 1);
    for step in 0..=steps {
        let fraction = 0.5 * step as f64 / steps as f64;
        let mut sum_response = Micros::ZERO;
        let mut complete = 0u64;
        let mut degraded = 0u64;
        let mut dropped = 0u64;
        let mut infeasible = 0u64;
        let mut disks_down = 0usize;
        for seed in 0..seeds {
            let injector =
                FaultInjector::random_outages(0xD15C ^ seed, n, fraction, Micros::ZERO, None);
            disks_down = injector.events().len();
            let mut engine = Engine::builder(&system, &alloc)
                .fault_injector(injector)
                .degraded_mode(true)
                .build_with(PushRelabelBinary);
            for r in engine.submit_batch(&queries) {
                match r {
                    Ok(o) if o.is_complete() => {
                        complete += 1;
                        sum_response += o.outcome.response_time;
                    }
                    Ok(o) => {
                        degraded += 1;
                        dropped += o.unservable.len() as u64;
                    }
                    Err(_) => infeasible += 1,
                }
            }
        }
        points.push(SweepPoint {
            fraction,
            disks_down,
            mean_complete_ms: if complete > 0 {
                sum_response.as_micros() as f64 / complete as f64 / 1_000.0
            } else {
                f64::NAN
            },
            complete,
            degraded,
            dropped_buckets: dropped,
            infeasible,
        });
    }

    let baseline = points[0].mean_complete_ms;
    let mut report = format!(
        "# fault_sweep — mean optimal response time vs fraction of failed disks\n\
         # paper Table II system ({n} disks, two sites), orthogonal 7x7 allocation\n\
         # {total} queries x {seeds} outage seeds per point, degraded-mode engine,\n\
         # disks taken offline at t=0 (no recovery), PR-binary solver.\n\
         #\n\
         # complete  = queries with every bucket served (mean response over these)\n\
         # degraded  = queries answered best-effort (>=1 bucket unservable)\n\
         # dropped   = unservable buckets across all degraded queries\n\
         #\n\
         # fraction disks_down mean_complete_ms degradation complete degraded dropped infeasible\n"
    );
    for p in &points {
        report.push_str(&format!(
            "{:.2} {} {:.3} {:.3}x {} {} {} {}\n",
            p.fraction,
            p.disks_down,
            p.mean_complete_ms,
            p.mean_complete_ms / baseline,
            p.complete,
            p.degraded,
            p.dropped_buckets,
            p.infeasible,
        ));
    }
    print!("{report}");
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/fault_sweep.txt", &report))
    {
        eprintln!("could not write results/fault_sweep.txt: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote results/fault_sweep.txt");
    ExitCode::SUCCESS
}
