//! Anytime-solve acceptance tests: a generous [`SolveBudget`] is
//! bit-identical to an unlimited one across every solver kind, and an
//! exhausted budget still returns a feasible schedule with a reported
//! optimality gap — it never errors, never panics, never blocks.

use std::time::Duration;

use rds_util::SplitMix64;
use replicated_retrieval::core::verify::{assert_outcome_valid, oracle_optimal_response};
use replicated_retrieval::prelude::*;

fn arb_system(n: usize, seed: u64) -> SystemConfig {
    let id = ExperimentId::ALL[(seed % 5) as usize];
    experiment(id, n, seed)
}

fn arb_alloc(n: usize, seed: u64) -> ReplicaMap {
    match seed % 3 {
        0 => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
        1 => ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite)),
        _ => ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite)),
    }
}

/// FF-basic only supports the pristine uniform problem; every other kind
/// gets a random experiment configuration.
fn system_for(kind: SolverKind, n: usize, seed: u64) -> SystemConfig {
    if kind == SolverKind::FordFulkersonBasic {
        experiment(ExperimentId::Exp1, n, seed)
    } else {
        arb_system(n, seed)
    }
}

/// A budget far beyond what any test-sized solve needs must not change a
/// single bit of the outcome: same schedule, same response time, same
/// work counters, zero expirations.
#[test]
fn generous_budget_is_bit_identical_to_unbudgeted() {
    let mut rng = SplitMix64::seed_from_u64(0xA11F);
    let generous = SolveBudget::default()
        .with_wall_clock(Duration::from_secs(3600))
        .with_max_probes(u64::MAX / 2);
    for case in 0..56 {
        let kind = SolverKind::ALL[case % SolverKind::ALL.len()];
        let n = rng.gen_range(3..8usize);
        let seed = rng.gen_u64();
        let system = system_for(kind, n, seed);
        let alloc = arb_alloc(n, rng.gen_u64());
        let r = rng.gen_range(1..=n.min(5));
        let c = rng.gen_range(1..=n.min(5));
        let inst =
            RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, r, c).buckets(n));

        // One worker thread keeps the parallel solver's work-stealing
        // discharge order (hence its push/relabel counts) deterministic,
        // so the bit-identity assertion below stays meaningful.
        let plain = SolverSpec::new(kind).parallelism(1).solve(&inst).unwrap();
        let budgeted = SolverSpec::new(kind)
            .parallelism(1)
            .budget(generous)
            .solve(&inst)
            .unwrap();

        assert_eq!(
            plain.schedule,
            budgeted.schedule,
            "{} schedule",
            kind.name()
        );
        assert_eq!(plain.response_time, budgeted.response_time);
        assert_eq!(plain.flow_value, budgeted.flow_value);
        assert_eq!(plain.stats, budgeted.stats, "{} work counters", kind.name());
        assert_eq!(budgeted.stats.budget_expirations, 0);
        assert_eq!(budgeted.stats.anytime_gap, Micros::ZERO);
    }
}

/// A zero-probe budget expires on the first check, yet every solver kind
/// still returns a complete, valid schedule whose response time bounds
/// the optimum from above, with the gap reported against a true lower
/// bound.
#[test]
fn exhausted_budget_stays_feasible_and_reports_the_gap() {
    let mut rng = SplitMix64::seed_from_u64(0xA11E);
    let exhausted = SolveBudget::default().with_max_probes(0);
    for case in 0..56 {
        let kind = SolverKind::ALL[case % SolverKind::ALL.len()];
        let n = rng.gen_range(3..8usize);
        let seed = rng.gen_u64();
        let system = system_for(kind, n, seed);
        let alloc = arb_alloc(n, rng.gen_u64());
        let r = rng.gen_range(1..=n.min(5));
        let c = rng.gen_range(1..=n.min(5));
        let inst =
            RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, r, c).buckets(n));
        let optimum = oracle_optimal_response(&inst);

        let outcome = SolverSpec::new(kind)
            .budget(exhausted)
            .solve(&inst)
            .unwrap();
        assert_outcome_valid(&inst, &outcome);
        assert_eq!(outcome.stats.budget_expirations, 1, "{}", kind.name());
        assert!(
            outcome.response_time >= optimum,
            "{}: achieved {} below the optimum {}",
            kind.name(),
            outcome.response_time,
            optimum
        );
        // The reported gap is measured against a certified lower bound,
        // so achieved − gap can never overshoot the true optimum.
        assert!(
            outcome
                .response_time
                .saturating_sub(outcome.stats.anytime_gap)
                <= optimum,
            "{}: gap {} understates achieved {} vs optimum {}",
            kind.name(),
            outcome.stats.anytime_gap,
            outcome.response_time,
            optimum
        );
    }
}

/// An expired wall-clock budget behaves like an expired probe budget:
/// feasible schedule, gap reported, no error. (Zero wall clock expires
/// deterministically at the first boundary check.)
#[test]
fn zero_wall_clock_budget_bails_to_a_feasible_schedule() {
    let budget = SolveBudget::default().with_wall_clock(Duration::ZERO);
    let alloc = OrthogonalAllocation::paper_7x7();
    let buckets = RangeQuery::new(0, 0, 5, 5).buckets(7);
    for kind in SolverKind::ALL {
        let system = system_for(kind, 7, 1);
        let inst = RetrievalInstance::build(&system, &alloc, &buckets);
        let optimum = oracle_optimal_response(&inst);
        let outcome = SolverSpec::new(kind).budget(budget).solve(&inst).unwrap();
        assert_outcome_valid(&inst, &outcome);
        assert_eq!(outcome.stats.budget_expirations, 1, "{}", kind.name());
        assert!(outcome.response_time >= optimum, "{}", kind.name());
    }
}

/// The budget threads through the session delta path: warm-started
/// follow-up queries under a generous budget match the unbudgeted
/// session exactly, and an exhausted budget on the delta path still
/// serves every query.
#[test]
fn sessions_respect_the_armed_budget_on_the_delta_path() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let windows = [
        RangeQuery::new(0, 0, 4, 3),
        RangeQuery::new(1, 0, 4, 3),
        RangeQuery::new(2, 1, 4, 3),
        RangeQuery::new(3, 1, 4, 3),
    ];
    for kind in [
        SolverKind::PushRelabelIncremental,
        SolverKind::PushRelabelBinary,
        SolverKind::ParallelPushRelabelBinary,
    ] {
        // As above: one worker pins the work-stealing discharge order so
        // the two sessions' schedules can be compared bit-for-bit.
        let spec = SolverSpec::new(kind).parallelism(1).reuse(ReusePolicy {
            warm_start: true,
            cache_capacity: 0,
        });
        let generous = SolveBudget::default().with_max_probes(u64::MAX / 2);

        let mut plain = RetrievalSession::from_spec(&system, &alloc, &spec);
        let mut budgeted = RetrievalSession::from_spec(&system, &alloc, &spec.budget(generous));
        for q in &windows {
            let a = plain.submit(Micros::ZERO, &q.buckets(7)).unwrap();
            let b = budgeted.submit(Micros::ZERO, &q.buckets(7)).unwrap();
            assert_eq!(a.outcome.schedule, b.outcome.schedule, "{}", kind.name());
            assert_eq!(a.completion, b.completion);
            assert_eq!(b.outcome.stats.budget_expirations, 0);
        }
        assert_eq!(
            plain.reuse_counters().delta_patches,
            budgeted.reuse_counters().delta_patches,
            "{}: budget changed delta-path usage",
            kind.name()
        );

        let starved_spec = spec.budget(SolveBudget::default().with_max_probes(0));
        let mut starved = RetrievalSession::from_spec(&system, &alloc, &starved_spec);
        for q in &windows {
            let out = starved.submit(Micros::ZERO, &q.buckets(7)).unwrap();
            assert_eq!(out.outcome.schedule.len(), q.buckets(7).len());
            assert_eq!(out.outcome.stats.budget_expirations, 1, "{}", kind.name());
        }
    }
}

/// `BudgetExpired` reaches the trace stream with a lower bound no larger
/// than the achieved response time.
#[test]
fn budget_expiry_is_traced() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let inst = RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, 5, 4).buckets(7));
    let mut ws = Workspace::new();
    ws.arm_budget(SolveBudget::default().with_max_probes(0));
    ws.install_recorder(256);
    let outcome = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
    let recorder = ws.recorder().expect("trace feature is on by default");
    assert_eq!(recorder.count(EventKind::BudgetExpired), 1);
    let expiries: Vec<_> = recorder
        .events()
        .into_iter()
        .filter_map(|ev| match ev {
            TraceEvent::BudgetExpired {
                achieved,
                lower_bound,
            } => Some((achieved, lower_bound)),
            _ => None,
        })
        .collect();
    assert_eq!(expiries.len(), 1);
    let (achieved, lower) = expiries[0];
    assert_eq!(achieved, outcome.response_time);
    assert!(lower <= achieved);
}

/// Engines built with a budget propagate it to every shard; an exhausted
/// budget shows up in the aggregated batch stats without a single
/// failure.
#[test]
fn engine_batches_surface_budget_expirations_in_stats() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let mut engine = Engine::builder(&system, &alloc)
        .solver_spec(
            SolverSpec::new(SolverKind::PushRelabelBinary)
                .budget(SolveBudget::default().with_max_probes(0)),
        )
        .shards(2)
        .build();
    let queries: Vec<BatchQuery> = (0..6)
        .map(|s| BatchQuery {
            stream: s,
            arrival: Micros::ZERO,
            buckets: RangeQuery::new(0, 0, 4, 4).buckets(7),
        })
        .collect();
    let results = engine.submit_batch(&queries);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(engine.stats().solve_stats.budget_expirations, 6);
    assert!(engine.stats().solve_stats.anytime_gap >= Micros::ZERO);
}

/// A wall-clock limit whose deadline lies beyond the clock's range is no
/// limit at all: sessions and engine batches armed with `Duration::MAX`
/// solve to the optimum without expiring, panicking or failing a shard.
#[test]
fn wall_clock_budget_past_the_clock_range_never_expires() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let buckets = RangeQuery::new(0, 0, 4, 4).buckets(7);
    let optimum = oracle_optimal_response(&RetrievalInstance::build(&system, &alloc, &buckets));
    let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
        .budget(SolveBudget::unlimited().with_wall_clock(Duration::MAX));

    let mut session = RetrievalSession::from_spec(&system, &alloc, &spec);
    let out = session.submit(Micros::ZERO, &buckets).unwrap();
    assert_eq!(out.outcome.response_time, optimum);
    assert_eq!(out.outcome.stats.budget_expirations, 0);

    let mut engine = Engine::builder(&system, &alloc)
        .solver_spec(spec)
        .shards(2)
        .build();
    let queries: Vec<BatchQuery> = (0..4)
        .map(|s| BatchQuery {
            stream: s,
            arrival: Micros::ZERO,
            buckets: buckets.clone(),
        })
        .collect();
    for result in engine.submit_batch(&queries) {
        assert_eq!(result.unwrap().outcome.response_time, optimum);
    }
    assert_eq!(engine.stats().shard_failures, 0);
    assert_eq!(engine.stats().solve_stats.budget_expirations, 0);
}
