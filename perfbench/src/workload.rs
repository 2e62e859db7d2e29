//! The three workloads, generated from a seed.
//!
//! Every input the engine sees — the storage system, the allocation, the
//! query pool, each request's stream, class, query and modeled arrival,
//! and the fault schedule — is a pure function of the workload and the
//! seed. See `perfbench/README.md` for why each workload was chosen.

use rds_util::SplitMix64;
use replicated_retrieval::core::fault::{DiskHealth, FaultEvent, FaultInjector};
use replicated_retrieval::core::serve::PriorityClass;
use replicated_retrieval::core::spec::ScheduleObjective;
use replicated_retrieval::decluster::allocation::ReplicaMap;
use replicated_retrieval::decluster::load::{Load, QueryGenerator, QueryKind};
use replicated_retrieval::decluster::orthogonal::OrthogonalAllocation;
use replicated_retrieval::decluster::query::{Bucket, Query, RangeQuery};
use replicated_retrieval::decluster::rda::RandomDuplicateAllocation;
use replicated_retrieval::storage::experiments::{experiment, paper_example, ExperimentId};
use replicated_retrieval::storage::model::SystemConfig;
use replicated_retrieval::storage::time::Micros;
use std::time::Duration;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// Table II system, short range queries, open loop plus overload.
    Table2Online,
    /// Table IV Experiment 5 at n = 50, large arbitrary queries in batches.
    Grid100Batch,
    /// Table II system, overlapping sliding windows, faults, refinement.
    StreamChurnOnline,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::Table2Online,
        WorkloadId::Grid100Batch,
        WorkloadId::StreamChurnOnline,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Table2Online => "table2-online",
            WorkloadId::Grid100Batch => "grid100-batch",
            WorkloadId::StreamChurnOnline => "stream-churn-online",
        }
    }

    /// One line on what the workload exercises.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Table2Online => {
                "small Table II solves at a fixed open-loop rate and above capacity, so the serve path dominates turnaround"
            }
            WorkloadId::Grid100Batch => {
                "1250-bucket queries on 100 disks in fused batches, so the max-flow kernel dominates and reuse is bypassed"
            }
            WorkloadId::StreamChurnOnline => {
                "overlapping windows with disk outages and MinTotalLoad, so session reuse, invalidation and refinement do the work"
            }
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated request: which stream, class and pooled query, and its
/// modeled arrival on the stream's virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub stream: usize,
    pub class: PriorityClass,
    pub query: usize,
    pub arrival: Micros,
}

/// One open-loop load level.
#[derive(Clone, Debug)]
pub struct Rung {
    pub name: &'static str,
    /// Nominal offered rate; request `k` is due `k / rate_qps` seconds
    /// after the rung starts.
    pub rate_qps: f64,
    /// Per-shard queue bound and Batch-class shed watermark.
    pub queue_capacity: usize,
    pub shed_watermark: Option<usize>,
    /// Whether admission may legitimately reject requests here.
    pub overload: bool,
    pub requests: Vec<Request>,
}

impl Rung {
    /// When request `k` is due, relative to the rung's start.
    pub fn due(&self, k: usize) -> Duration {
        Duration::from_secs_f64(k as f64 / self.rate_qps)
    }
}

/// How load reaches the engine.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// `Engine::serve` on the virtual clock: a nominal rung below
    /// capacity, then an overload rung above it.
    Online { nominal: Rung, overload: Rung },
    /// `Engine::submit_batch` in a closed loop of `batch`-query batches,
    /// run for the whole measuring time.
    Batch { batch: usize },
}

/// A fully generated workload.
pub struct Workload {
    pub id: WorkloadId,
    pub system: SystemConfig,
    pub alloc: ReplicaMap,
    /// Distinct queries; requests refer to them by index.
    pub queries: Vec<Vec<Bucket>>,
    pub streams: usize,
    /// Modeled spacing between consecutive arrivals of one stream.
    pub gap: Micros,
    pub objective: ScheduleObjective,
    pub faults: Option<FaultInjector>,
    /// Turnaround limit for `slo_share` and goodput, in µs.
    pub limit_us: f64,
    pub traffic: Traffic,
    seed: u64,
}

/// Table II: streams, per-stream modeled gap and the nominal and
/// overload rates.
const T2_STREAMS: usize = 8;
const T2_GAP: Micros = Micros::from_millis(8);
const T2_RATE: f64 = 20_000.0;
const T2_OVERLOAD_RATE: f64 = 150_000.0;

/// Grid100: grid side (100 disks over two sites), pooled queries,
/// streams, per-stream modeled gap and batch size.
const G_N: usize = 50;
const G_POOL: usize = 256;
const G_STREAMS: usize = 4;
const G_GAP: Micros = Micros::from_millis(100);
const G_BATCH: usize = 16;
const G_SYSTEM_SEED: u64 = 2012;

/// Stream churn: streams, per-stream gap (long enough for the Table II
/// disks to drain), nominal and overload rates, and the outage cycle.
const SC_STREAMS: usize = 4;
const SC_GAP: Micros = Micros::from_millis(100);
const SC_RATE: f64 = 10_000.0;
const SC_OVERLOAD_RATE: f64 = 150_000.0;
const SC_PERIOD: Micros = Micros::from_millis(5_000);
const SC_OUTAGE: Micros = Micros::from_millis(1_000);

impl Workload {
    /// Generates workload `id` from `seed`, with open-loop rungs sized
    /// for `seconds` of measuring.
    pub fn generate(id: WorkloadId, seed: u64, seconds: f64) -> Workload {
        match id {
            WorkloadId::Table2Online => table2_online(seed, seconds),
            WorkloadId::Grid100Batch => grid100_batch(seed),
            WorkloadId::StreamChurnOnline => stream_churn_online(seed, seconds),
        }
    }

    /// Request `k` of the closed batch loop: round-robin streams, evenly
    /// spaced modeled arrivals, a seeded pooled query.
    pub fn batch_request(&self, k: usize) -> Request {
        let mut rng = SplitMix64::seed_from_u64(self.seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
        Request {
            stream: k % self.streams,
            class: PriorityClass::Standard,
            query: rng.gen_range(0..self.queries.len()),
            arrival: Micros(self.gap.0 * (k / self.streams) as u64),
        }
    }

    /// Stream ids reserved for set-up warm-up traffic: disjoint from the
    /// measured streams, so warm-up never changes a measured answer.
    pub fn warmup_stream(&self, s: usize) -> usize {
        1_000 + s
    }
}

/// Share of the measuring time spent on the nominal rung; the overload
/// rung gets the rest.
const NOMINAL_SHARE: f64 = 2.0 / 3.0;

/// An open-loop rung of `rate × seconds` requests: round-robin over
/// `streams` streams from `first_stream`, with evenly spaced modeled
/// arrivals; `pick` chooses request `k`'s query and class. Overload rungs
/// get the serve_overload queue bound (32) and Batch-class shed
/// watermark (16).
#[allow(clippy::too_many_arguments)]
fn rung(
    name: &'static str,
    rate: f64,
    seconds: f64,
    first_stream: usize,
    streams: usize,
    gap: Micros,
    overload: bool,
    mut pick: impl FnMut(usize) -> (usize, PriorityClass),
) -> Rung {
    let count = (rate * seconds).ceil().max(1.0) as usize;
    let requests = (0..count)
        .map(|k| {
            let (query, class) = pick(k);
            Request {
                stream: first_stream + k % streams,
                class,
                query,
                arrival: Micros(gap.0 * (k / streams) as u64),
            }
        })
        .collect();
    Rung {
        name,
        rate_qps: rate,
        queue_capacity: if overload { 32 } else { 4096 },
        shed_watermark: overload.then_some(16),
        overload,
        requests,
    }
}

fn table2_online(seed: u64, seconds: f64) -> Workload {
    // The serve_overload mix: every 2–4 × 2–4 range query on the 7×7
    // grid, 4–16 buckets each.
    let mut queries = Vec::new();
    for rows in 2..=4 {
        for cols in 2..=4 {
            for i in 0..7 {
                for j in 0..7 {
                    queries.push(RangeQuery::new(i, j, rows, cols).buckets(7));
                }
            }
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x7ab1e2);
    let mut pick = |_| {
        let query = rng.gen_range(0..queries.len());
        let class = if rng.gen_range(0..3u32) == 0 {
            PriorityClass::Batch
        } else {
            PriorityClass::Standard
        };
        (query, class)
    };
    let nominal_s = seconds * NOMINAL_SHARE;
    let nominal = rung(
        "nominal", T2_RATE, nominal_s, 0, T2_STREAMS, T2_GAP, false, &mut pick,
    );
    // Each rung has streams of its own: a stream's arrivals must not go
    // back in time when the next rung starts.
    let overload_s = seconds - nominal_s;
    let overload = rung(
        "overload",
        T2_OVERLOAD_RATE,
        overload_s,
        T2_STREAMS,
        T2_STREAMS,
        T2_GAP,
        true,
        &mut pick,
    );
    Workload {
        id: WorkloadId::Table2Online,
        system: paper_example(),
        alloc: ReplicaMap::build(&OrthogonalAllocation::paper_7x7()),
        queries,
        streams: T2_STREAMS,
        gap: T2_GAP,
        objective: ScheduleObjective::FirstFeasible,
        faults: None,
        limit_us: 1_000.0,
        traffic: Traffic::Online { nominal, overload },
        seed,
    }
}

fn grid100_batch(seed: u64) -> Workload {
    // The storage system and allocation are the deployment, fixed for
    // every seed; the seed draws the traffic.
    let system = experiment(ExperimentId::Exp5, G_N, G_SYSTEM_SEED);
    let alloc = ReplicaMap::build(&RandomDuplicateAllocation::two_site(G_N, G_SYSTEM_SEED));
    let mut gen = QueryGenerator::new(G_N, QueryKind::Arbitrary, Load::Load1, seed ^ 0x9e7);
    let queries = (0..G_POOL).map(|_| gen.next_query().buckets(G_N)).collect();
    Workload {
        id: WorkloadId::Grid100Batch,
        system,
        alloc,
        queries,
        streams: G_STREAMS,
        gap: G_GAP,
        objective: ScheduleObjective::FirstFeasible,
        faults: None,
        limit_us: 20_000.0,
        traffic: Traffic::Batch { batch: G_BATCH },
        seed,
    }
}

/// The stream_reuse pattern: a 2×5 window snaking over the 7×7 grid,
/// three columns per row band. Column moves keep 8 of 10 buckets, and
/// every fourth step revisits the second position after the disks drained.
fn churn_window(step: usize) -> RangeQuery {
    const COLS: [usize; 4] = [0, 1, 2, 1];
    RangeQuery::new((step / COLS.len()) % 6, COLS[step % COLS.len()], 2, 5)
}

fn stream_churn_online(seed: u64, seconds: f64) -> Workload {
    // One pooled query per window position of the 24-step cycle.
    let cycle = 24;
    let queries: Vec<Vec<Bucket>> = (0..cycle).map(|s| churn_window(s).buckets(7)).collect();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5c);
    let offsets: Vec<usize> = (0..SC_STREAMS).map(|_| rng.gen_range(0..cycle)).collect();
    let pick = |k: usize| {
        let step = k / SC_STREAMS + offsets[k % SC_STREAMS];
        (step % cycle, PriorityClass::Standard)
    };
    let nominal_s = seconds * NOMINAL_SHARE;
    let nominal = rung(
        "nominal", SC_RATE, nominal_s, 0, SC_STREAMS, SC_GAP, false, pick,
    );
    let overload_s = seconds - nominal_s;
    let overload = rung(
        "overload",
        SC_OVERLOAD_RATE,
        overload_s,
        SC_STREAMS,
        SC_STREAMS,
        SC_GAP,
        true,
        pick,
    );
    let system = paper_example();
    // One seeded disk offline for 1 modeled second in every 5, over the
    // whole modeled span of the run. Each bucket keeps a replica on the
    // other site, so no query becomes infeasible.
    let longest = nominal.requests.len().max(overload.requests.len());
    let span = SC_GAP.0 * (longest / SC_STREAMS + 1) as u64;
    let mut events = Vec::new();
    let mut start = 0;
    while start <= span {
        let disk = rng.gen_range(0..system.num_disks());
        let down = Micros(start + rng.gen_range(0..SC_PERIOD.0 - SC_OUTAGE.0));
        events.push(FaultEvent {
            at: down,
            disk,
            health: DiskHealth::Offline,
        });
        events.push(FaultEvent {
            at: down + SC_OUTAGE,
            disk,
            health: DiskHealth::Healthy,
        });
        start += SC_PERIOD.0;
    }
    Workload {
        id: WorkloadId::StreamChurnOnline,
        system,
        alloc: ReplicaMap::build(&OrthogonalAllocation::paper_7x7()),
        queries,
        streams: SC_STREAMS,
        gap: SC_GAP,
        objective: ScheduleObjective::MinTotalLoad,
        faults: Some(FaultInjector::with_events(events)),
        limit_us: 1_000.0,
        traffic: Traffic::Online { nominal, overload },
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for id in WorkloadId::ALL {
            let a = Workload::generate(id, 7, 0.01);
            let b = Workload::generate(id, 7, 0.01);
            let c = Workload::generate(id, 8, 0.01);
            assert_eq!(a.queries, b.queries, "{}", id.name());
            assert_eq!(a.system, b.system);
            assert_eq!(a.batch_request(5), b.batch_request(5));
            if let (Traffic::Online { nominal: na, .. }, Traffic::Online { nominal: nc, .. }) =
                (&a.traffic, &c.traffic)
            {
                let nb = match &b.traffic {
                    Traffic::Online { nominal, .. } => nominal,
                    Traffic::Batch { .. } => unreachable!(),
                };
                assert_eq!(na.requests, nb.requests);
                assert_ne!(na.requests, nc.requests, "{}", id.name());
            }
        }
    }

    #[test]
    fn per_stream_arrivals_are_monotone_and_spaced() {
        let w = Workload::generate(WorkloadId::Table2Online, 3, 0.01);
        let Traffic::Online { nominal, .. } = &w.traffic else {
            unreachable!()
        };
        let mut last = vec![None; w.streams];
        for r in &nominal.requests {
            if let Some(prev) = last[r.stream] {
                assert_eq!(r.arrival, prev + w.gap);
            }
            last[r.stream] = Some(r.arrival);
        }
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }
}
