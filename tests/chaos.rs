//! Chaos testing: a fifth of the disks fail mid-batch under a seeded
//! fault schedule while a buggy solver panics on selected queries — the
//! engine must contain every fault, keep serving the healthy streams, and
//! produce bit-identical results for any shard count.

use rds_util::SplitMix64;
use replicated_retrieval::core::error::EngineError;
use replicated_retrieval::core::network::RetrievalInstance;
use replicated_retrieval::core::pr::PushRelabelBinary;
use replicated_retrieval::prelude::*;

const GRID: usize = 7;

fn chaos_batch(seed: u64, queries: usize, streams: usize) -> Vec<BatchQuery> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::with_capacity(queries);
    let mut t = 0u64;
    for _ in 0..queries {
        t += rng.gen_range(0..2_000u64);
        let r = rng.gen_range(1..4usize);
        let c = rng.gen_range(1..4usize);
        let q = RangeQuery::new(
            rng.gen_range(0..GRID),
            rng.gen_range(0..GRID),
            r.min(GRID),
            c.min(GRID),
        );
        out.push(BatchQuery {
            stream: rng.gen_range(0..streams),
            arrival: Micros::from_micros(t),
            buckets: q.buckets(GRID),
        });
    }
    out
}

/// A comparable, shard-count-independent digest of one query result.
/// `ShardFailed` carries the shard index (which legitimately depends on
/// the shard count), so it is normalized to a marker.
#[derive(Debug, PartialEq, Eq)]
enum Digest {
    Served {
        response: Micros,
        completion: Micros,
        assignments: Vec<(Bucket, usize)>,
        unservable: Vec<Bucket>,
    },
    Failed(EngineError),
    Panicked,
}

fn digest(r: &Result<SessionOutcome, EngineError>) -> Digest {
    match r {
        Ok(o) => Digest::Served {
            response: o.outcome.response_time,
            completion: o.completion,
            assignments: o.outcome.schedule.assignments().to_vec(),
            unservable: o.unservable.clone(),
        },
        Err(EngineError::ShardFailed { .. }) => Digest::Panicked,
        Err(e) => Digest::Failed(*e),
    }
}

/// A solver with an injected bug: it panics whenever the query contains
/// the poison bucket.
#[derive(Clone, Copy)]
struct Buggy {
    poison: Bucket,
}

impl RetrievalSolver for Buggy {
    fn name(&self) -> &'static str {
        "buggy"
    }
    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        assert!(!inst.buckets.contains(&self.poison), "injected solver bug");
        PushRelabelBinary.solve_in(inst, ws)
    }
}

#[test]
fn twenty_percent_outage_mid_batch_is_deterministic_and_contained() {
    let system = paper_example(); // 14 disks, two sites
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries = chaos_batch(0xC4A05, 120, 9);
    let horizon = queries.last().unwrap().arrival;

    // 20% of the disks drop dead at a third of the batch and recover at
    // two thirds; the schedule is a pure function of the seed.
    let injector = || {
        FaultInjector::random_outages(
            0xFA21,
            system.num_disks(),
            0.2,
            horizon / 3,
            Some(horizon / 3),
        )
    };
    assert_eq!(
        injector()
            .events()
            .iter()
            .filter(|e| e.health.is_offline())
            .count(),
        (system.num_disks() as f64 * 0.2).round() as usize
    );

    let run = |shards: usize| -> (Vec<Digest>, u64, u64, u64) {
        let mut engine = Engine::builder(&system, &alloc)
            .shards(shards)
            .fault_injector(injector())
            // Probes land inside the outage for most victims (degraded
            // fallback) and past the recovery for late arrivals (retry).
            .retry_policy(RetryPolicy {
                max_retries: 2,
                backoff: horizon / 10,
            })
            .degraded_mode(true)
            .build();
        let results = engine.submit_batch(&queries);
        let digests = results.iter().map(digest).collect();
        let stats = engine.stats();
        (
            digests,
            stats.degraded_solves + stats.dropped_buckets,
            stats.retries,
            stats.errors,
        )
    };

    let baseline = run(1);
    assert!(
        baseline.0.iter().all(|d| !matches!(d, Digest::Panicked)),
        "no panics expected in this scenario"
    );
    // The outage must actually bite for the test to mean anything: some
    // queries arriving mid-outage lose every replica of a bucket and are
    // answered degraded, and at least one late arrival replans across the
    // recovery.
    assert!(baseline.1 > 0, "no degraded solves — outage never bit");
    assert!(baseline.2 > 0, "no retries — recovery never replanned");
    for shards in [2usize, 3, 5, 8, 16] {
        assert_eq!(run(shards), baseline, "{shards} shards");
    }
}

/// Shard-count-independent digest of one *serving-loop* submission:
/// either a typed admission rejection or the resolved response.
#[derive(Debug, PartialEq, Eq)]
enum ServeDigest {
    Served {
        response: Micros,
        completion: Micros,
        assignments: Vec<(Bucket, usize)>,
        unservable: Vec<Bucket>,
        deadline_missed: bool,
    },
    Failed(EngineError),
    Panicked,
    Rejected(Rejected),
}

/// Satellite acceptance: the serving loop under 2x overload with a 20%
/// mid-batch disk outage resolves every submitted request to exactly one
/// of schedule / degraded partial schedule / typed rejection — no hangs,
/// no panics — and under the virtual clock the full per-submission digest
/// is identical for every shard count.
#[test]
fn serve_chaos_overload_and_outage_resolves_every_submission_deterministically() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    // Double the batch-mode chaos volume: 240 queries on 9 streams.
    let queries = chaos_batch(0x5E2E, 240, 9);
    let horizon = queries.last().unwrap().arrival;
    let injector = || {
        FaultInjector::random_outages(
            0xFA21,
            system.num_disks(),
            0.2,
            horizon / 3,
            Some(horizon / 3),
        )
    };

    let run = |shards: usize| -> (Vec<ServeDigest>, u64, u64) {
        let mut engine = Engine::builder(&system, &alloc)
            .shards(shards)
            .fault_injector(injector())
            .retry_policy(RetryPolicy {
                max_retries: 2,
                backoff: horizon / 10,
            })
            .degraded_mode(true)
            .build();
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let mut req =
                        QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival);
                    if i % 5 == 0 && q.arrival > Micros::ZERO {
                        // Already-expired SLA: typed rejection at admission.
                        req = req.deadline(Micros::ZERO).class(PriorityClass::Batch);
                    } else if i % 7 == 0 {
                        // Tight-but-meetable SLA: admitted, may be missed.
                        req = req
                            .deadline(q.arrival + Micros::from_millis(40))
                            .class(PriorityClass::Interactive);
                    }
                    h.submit(req)
                })
                .collect::<Vec<Result<Ticket, Rejected>>>()
        });

        // Exactly-once: every admitted ticket appears in exactly one
        // response, and nothing else does.
        assert_eq!(
            report.stats.admitted + report.stats.rejected(),
            report.stats.submitted
        );
        let by_reason: u64 = RejectReason::ALL
            .iter()
            .map(|&r| report.stats.rejected_for(r))
            .sum();
        assert_eq!(by_reason, report.stats.rejected());
        assert_eq!(
            report.stats.completed, report.stats.admitted,
            "{shards} shards"
        );
        assert_eq!(report.unclaimed.len() as u64, report.stats.admitted);
        let mut by_ticket = std::collections::HashMap::new();
        for r in &report.unclaimed {
            let d = match &r.result {
                Ok(o) => ServeDigest::Served {
                    response: o.outcome.response_time,
                    completion: o.completion,
                    assignments: o.outcome.schedule.assignments().to_vec(),
                    unservable: o.unservable.clone(),
                    deadline_missed: r.deadline_missed,
                },
                Err(ServeError::Engine(EngineError::ShardFailed { .. })) => ServeDigest::Panicked,
                Err(ServeError::Engine(e)) => ServeDigest::Failed(*e),
                Err(_) => unreachable!("non-exhaustive ServeError"),
            };
            assert!(by_ticket.insert(r.ticket, d).is_none(), "duplicate ticket");
        }

        let digests = report
            .output
            .into_iter()
            .map(|sub| match sub {
                Ok(t) => by_ticket.remove(&t).expect("admitted ticket must resolve"),
                Err(rej) => ServeDigest::Rejected(rej),
            })
            .collect::<Vec<_>>();
        assert!(by_ticket.is_empty(), "responses for unknown tickets");
        (
            digests,
            report.stats.rejected_for(RejectReason::DeadlineUnmeetable),
            engine.stats().degraded_solves + engine.stats().dropped_buckets,
        )
    };

    let baseline = run(1);
    assert!(
        baseline
            .0
            .iter()
            .all(|d| !matches!(d, ServeDigest::Panicked)),
        "no panics expected in this scenario"
    );
    // The scenario must actually exercise all three resolution kinds.
    assert!(
        baseline.1 > 0,
        "no deadline rejections — admission never bit"
    );
    assert!(baseline.2 > 0, "no degraded solves — outage never bit");
    assert!(
        baseline
            .0
            .iter()
            .any(|d| matches!(d, ServeDigest::Served { .. })),
        "nothing served"
    );
    for shards in [2usize, 4] {
        assert_eq!(run(shards), baseline, "{shards} shards");
    }
}

/// Backpressure under sustained overload: with the lone worker wedged in
/// a solve, the bounded queue sheds the batch class at the watermark and
/// rejects everyone at capacity, while every admitted request still
/// resolves once the worker frees up.
#[test]
fn serve_overload_applies_queue_full_and_shed_backpressure() {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RELEASE: AtomicBool = AtomicBool::new(false);
    #[derive(Clone, Copy)]
    struct Gate;
    impl RetrievalSolver for Gate {
        fn name(&self) -> &'static str {
            "gate"
        }
        fn solve_in(
            &self,
            inst: &RetrievalInstance,
            ws: &mut Workspace,
        ) -> Result<RetrievalOutcome, SolveError> {
            while !RELEASE.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            PushRelabelBinary.solve_in(inst, ws)
        }
    }

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let mut engine = Engine::builder(&system, &alloc).build_with(Gate);
    let buckets = RangeQuery::new(0, 0, 2, 2).buckets(GRID);
    let report = engine.serve(
        ServeConfig::default()
            .virtual_time()
            .queue_capacity(2)
            .shed_watermark(1),
        |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap();
            // Wait for the worker to take the request and wedge in Gate,
            // so subsequent depths are deterministic.
            while h.queue_depth(0) != Some(0) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap(); // depth 1
            let shed = h
                .submit(QueryRequest::new(0, buckets.clone()).class(PriorityClass::Batch))
                .unwrap_err();
            assert!(matches!(shed, Rejected::ShedLowPriority { depth: 1, .. }));
            // Interactive sails past the watermark up to capacity.
            h.submit(QueryRequest::new(0, buckets.clone()).class(PriorityClass::Interactive))
                .unwrap(); // depth 2
            let full = h.submit(QueryRequest::new(0, buckets.clone())).unwrap_err();
            assert_eq!(full, Rejected::QueueFull { shard: 0, depth: 2 });
            RELEASE.store(true, Ordering::Release);
        },
    );
    assert_eq!(report.stats.admitted, 3);
    assert_eq!(report.stats.completed, 3);
    let stats = &report.stats;
    assert_eq!(stats.rejected_for(RejectReason::ShedLowPriority), 1);
    assert_eq!(stats.rejected_for(RejectReason::QueueFull), 1);
    assert_eq!(stats.submitted, stats.admitted + stats.rejected());
    let by_reason: u64 = RejectReason::ALL
        .iter()
        .map(|&r| stats.rejected_for(r))
        .sum();
    assert_eq!(by_reason, stats.rejected());
    assert!(report.stats.shed_rate() > 0.0);
    assert!(report.unclaimed.iter().all(|r| r.result.is_ok()));
}

#[test]
fn chaos_with_panicking_solver_keeps_healthy_streams_and_determinism() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let mut queries = chaos_batch(0xBEEF, 80, 7);
    let poison = Bucket::new(6, 6);
    // Make sure several queries actually contain the poison bucket.
    for q in queries.iter_mut().step_by(17) {
        if !q.buckets.contains(&poison) {
            q.buckets.push(poison);
        }
    }
    let horizon = queries.last().unwrap().arrival;
    let injector =
        || FaultInjector::random_outages(0x0DD5, system.num_disks(), 0.2, horizon / 4, None);

    let run = |shards: usize| -> Vec<Digest> {
        let mut engine = Engine::builder(&system, &alloc)
            .shards(shards)
            .fault_injector(injector())
            .degraded_mode(true)
            .build_with(Buggy { poison });
        engine.submit_batch(&queries).iter().map(digest).collect()
    };

    let baseline = run(1);
    let panicked = baseline
        .iter()
        .filter(|d| matches!(d, Digest::Panicked))
        .count();
    let served = baseline
        .iter()
        .filter(|d| matches!(d, Digest::Served { .. }))
        .count();
    assert!(panicked >= 3, "poison queries must hit ({panicked})");
    assert!(served >= 40, "healthy streams must keep serving ({served})");
    for shards in [2usize, 4, 7] {
        assert_eq!(run(shards), baseline, "{shards} shards");
    }
}
