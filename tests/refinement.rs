//! Min-cost schedule refinement properties.
//!
//! Refinement (a [`ScheduleObjective`] other than `FirstFeasible`) must
//! never trade away what the binary search proved: the refined schedule
//! keeps the optimal response time and the full flow value for every
//! solver kind, every health map and every reuse path — it only
//! redistributes which replicas carry the load.

use rds_util::SplitMix64;
use replicated_retrieval::core::verify::assert_outcome_valid;
use replicated_retrieval::prelude::*;

fn build_alloc(scheme: usize, n: usize, seed: u64) -> ReplicaMap {
    match scheme {
        0 => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
        1 => ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite)),
        _ => ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite)),
    }
}

fn random_health(rng: &mut SplitMix64, n: usize) -> HealthMap {
    let mut health = HealthMap::all_healthy();
    for j in 0..n {
        match rng.gen_range(0..8u64) {
            0 => health.set(j, DiskHealth::Offline),
            1 => health.set(
                j,
                DiskHealth::Degraded {
                    load_factor: 110 + rng.gen_range(0..200u64) as u32,
                },
            ),
            _ => {}
        }
    }
    health
}

/// 200 random (system, allocation, query, health) cases: for every
/// solver kind and both refining objectives, the refined schedule is
/// valid, keeps the unrefined optimal response time and flow value, and
/// `MinTotalLoad` never increases the total weighted load.
#[test]
fn refinement_preserves_the_optimum_across_kinds_and_health() {
    let mut rng = SplitMix64::seed_from_u64(0x12EF);
    let mut cases = 0usize;
    while cases < 200 {
        let n = rng.gen_range(3..8usize);
        let exp = ExperimentId::ALL[rng.gen_range(0..5usize)];
        let system = experiment(exp, n, rng.gen_u64());
        let alloc = build_alloc(rng.gen_range(0..3usize), n, rng.gen_u64());
        let q = RangeQuery::new(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(1..=n),
            rng.gen_range(1..=n),
        );
        let buckets = q.buckets(n);
        let health = random_health(&mut rng, n);
        let Ok(inst) = RetrievalInstance::build_with_health(&system, &alloc, &buckets, &health)
        else {
            // Some bucket lost every replica — not a refinement case.
            continue;
        };
        // Algorithm 1 solves the basic problem only: give it a
        // homogeneous all-healthy instance, like the equivalence suite.
        let basic_system = experiment(ExperimentId::Exp1, n, rng.gen_u64());
        let basic_inst = RetrievalInstance::build(&basic_system, &alloc, &buckets);
        cases += 1;

        for kind in SolverKind::ALL {
            let inst = if kind == SolverKind::FordFulkersonBasic {
                &basic_inst
            } else {
                &inst
            };
            let plain = SolverSpec::new(kind).build().solve(inst).unwrap();
            for objective in [
                ScheduleObjective::MinTotalLoad,
                ScheduleObjective::MinMaxLoad,
            ] {
                let refined = SolverSpec::new(kind)
                    .objective(objective)
                    .solve(inst)
                    .unwrap();
                assert_outcome_valid(inst, &refined);
                assert_eq!(
                    refined.response_time,
                    plain.response_time,
                    "{} with {objective:?} changed the optimal response time (case {cases})",
                    kind.name()
                );
                assert_eq!(refined.flow_value, plain.flow_value);
                assert_eq!(refined.stats.refine_passes, 1);
                if objective == ScheduleObjective::MinTotalLoad {
                    assert!(
                        refined.schedule.total_weighted_load(&inst.disks)
                            <= plain.schedule.total_weighted_load(&inst.disks),
                        "{} MinTotalLoad increased total load (case {cases})",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// Sliding 2×5 windows over the 7×7 grid: a warm session (delta-patched
/// via `patch_buckets`, schedule cache on) with refinement enabled must
/// return the same response times and total weighted loads as a cold
/// session running the identical refined workload — and must actually
/// exercise the delta path while doing so.
#[test]
fn warm_refined_sessions_agree_with_cold_refined_solves() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let disks: Vec<_> = system.disks().to_vec();
    for objective in [
        ScheduleObjective::MinTotalLoad,
        ScheduleObjective::MinMaxLoad,
    ] {
        let cold_spec = SolverSpec::new(SolverKind::PushRelabelBinary).objective(objective);
        let mut warm =
            RetrievalSession::from_spec(&system, &alloc, &cold_spec.reuse(ReusePolicy::warm()));
        let mut cold = RetrievalSession::from_spec(&system, &alloc, &cold_spec);
        for step in 0..24usize {
            // Snake the window one column at a time, wrapping rows: 80%
            // bucket overlap between consecutive queries, equal sizes —
            // exactly the shape the delta patcher accepts.
            let q = RangeQuery::new(step % 6, (step / 6) % 6, 2, 5);
            let buckets = q.buckets(7);
            let arrival = Micros::from_millis(40 * step as u64);
            let w = warm.submit(arrival, &buckets).unwrap();
            let c = cold.submit(arrival, &buckets).unwrap();
            assert_eq!(
                w.outcome.response_time, c.outcome.response_time,
                "step {step} ({objective:?})"
            );
            assert_eq!(w.outcome.flow_value, c.outcome.flow_value);
            assert_eq!(
                w.outcome.schedule.total_weighted_load(&disks),
                c.outcome.schedule.total_weighted_load(&disks),
                "step {step} ({objective:?})"
            );
            assert_eq!(w.completion, c.completion);
        }
        let reuse = warm.reuse_counters();
        assert!(
            reuse.delta_patches > 0,
            "warm stream never delta-patched ({objective:?})"
        );
    }
}

/// The engine threads the objective through its builder spec: refined
/// batches keep the exact response times of the unrefined engine,
/// refinement work shows up in the solver stats, and the metrics
/// registry exports the `rds_refine_*` counters.
#[test]
fn engine_objective_refines_without_changing_response_times() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let mut queries = Vec::new();
    for k in 0..8usize {
        for s in 0..3usize {
            let q = RangeQuery::new((s + k) % 6, k % 6, 2, 4);
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros::from_millis((30 * k) as u64),
                buckets: q.buckets(7),
            });
        }
    }
    let run = |objective: ScheduleObjective| {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary)
                    .objective(objective)
                    .reuse(ReusePolicy::warm()),
            )
            .shards(2)
            .build();
        let times: Vec<Micros> = engine
            .submit_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap().outcome.response_time)
            .collect();
        (times, engine.metrics_snapshot())
    };
    let (plain_times, plain_snap) = run(ScheduleObjective::FirstFeasible);
    let (refined_times, snap) = run(ScheduleObjective::MinMaxLoad);
    assert_eq!(refined_times, plain_times);
    assert_eq!(plain_snap.stats.solve_stats.refine_passes, 0);
    assert_eq!(
        snap.stats.solve_stats.refine_passes,
        queries.len() as u64 - snap.stats.reuse.cache_hits
    );
    let prom = snap.to_prometheus();
    assert!(prom.contains("rds_refine_passes_total"));
    assert!(prom.contains("rds_refine_cycles_total"));
    assert!(prom.contains("rds_refine_moved_units_total"));
}
