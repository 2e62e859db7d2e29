//! Push-relabel based integrated retrieval (paper Algorithms 5 and 6).
//!
//! * [`PushRelabelIncremental`] — Algorithm 5 run standalone from zero
//!   capacities: alternate `IncrementMinCost` with a flow-conserving
//!   push-relabel resume until the sink receives `|Q|` units.
//! * [`PushRelabelBinary`] — Algorithm 6: first a binary search over the
//!   response-time budget narrows `[t_min, t_max)` below the fastest
//!   disk's per-bucket cost, **conserving flows across probes** (storing
//!   the flow state of failed probes, restoring it after successful ones);
//!   then the incremental phase of Algorithm 5 finds the exact optimum.
//!
//! Every front-end, the parallel (Section V) one included, runs one solve
//! body, `solve_integrated`, generic over the [`IncrementalMaxFlow`]
//! engine it resumes.

use crate::error::SolveError;
use crate::increment::MinCostIncrementer;
use crate::network::RetrievalInstance;
use crate::obs::trace::{TraceEvent, Tracer};
use crate::schedule::{RetrievalOutcome, SolveStats};
use crate::solver::RetrievalSolver;
use crate::workspace::{on_graph, ArmedBudget, Workspace};
use rds_flow::graph::{ArenaIndex, FlowGraph};
use rds_flow::incremental::{cancel_path, retarget_capacity, IncrementalMaxFlow};
use rds_storage::time::Micros;

/// Algorithm 5 standalone: integrated incremental push-relabel from zero
/// capacities.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushRelabelIncremental;

impl RetrievalSolver for PushRelabelIncremental {
    fn name(&self) -> &'static str {
        "PR-incremental"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        solve_integrated(self.name(), Integrated::Incremental, false, inst, ws, None)
    }

    fn supports_delta(&self) -> bool {
        true
    }

    fn resume_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        solve_integrated(self.name(), Integrated::Incremental, true, inst, ws, None)
    }
}

/// Algorithm 6: binary capacity scaling with flow conservation — the
/// paper's headline sequential algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushRelabelBinary;

impl RetrievalSolver for PushRelabelBinary {
    fn name(&self) -> &'static str {
        "PR-binary"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        solve_integrated(self.name(), Integrated::Binary, false, inst, ws, None)
    }

    fn supports_delta(&self) -> bool {
        true
    }

    fn resume_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        solve_integrated(self.name(), Integrated::Binary, true, inst, ws, None)
    }
}

/// Which integrated algorithm a push-relabel front-end runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Integrated {
    /// Algorithm 5: the incremental phase alone.
    Incremental,
    /// Algorithm 6: binary capacity scaling, then the incremental phase.
    Binary,
}

/// The one solve body of the push-relabel integrated solvers, sequential
/// and parallel (paper Algorithms 5 and 6, Section V): stages `inst` cold,
/// or from the staged warm flow when `warm`, then runs `alg` on the
/// workspace's sequential engine, or with `parallel` threads on its
/// cached parallel engine, after loading the warm excesses into it.
pub(crate) fn solve_integrated(
    solver: &'static str,
    alg: Integrated,
    warm: bool,
    inst: &RetrievalInstance,
    ws: &mut Workspace,
    parallel: Option<usize>,
) -> Result<RetrievalOutcome, SolveError> {
    ws.tracer.note_solver(solver, warm);
    let budget = ArmedBudget::start(ws.armed_budget());
    if !warm {
        ws.begin(inst)?;
    } else if !ws.begin_warm(inst)? {
        return Err(SolveError::DeltaUnsupported { solver });
    }
    if let Some(threads) = parallel {
        ws.ensure_parallel(threads, inst.graph.num_vertices());
    }
    let mut stats = SolveStats::default();
    // Expands once per engine (and, through `on_graph!`, per arena width),
    // so every resume is statically dispatched.
    macro_rules! run_on {
        ($engine:expr) => {
            on_graph!(ws, |g| {
                let engine = $engine;
                let run = if warm {
                    load_excess(engine, g, &ws.warm_excess);
                    warm_integrated(
                        engine,
                        inst,
                        g,
                        &mut stats,
                        &mut ws.stored_excess,
                        &ws.warm_changed,
                        &mut ws.tracer,
                        alg == Integrated::Binary,
                        budget,
                    )
                } else if alg == Integrated::Binary {
                    binary_scaling_integrated(
                        engine,
                        inst,
                        g,
                        &mut stats,
                        &mut ws.stored_flows,
                        &mut ws.stored_excess,
                        &mut ws.tracer,
                        budget,
                    )
                } else {
                    incremental_phase(engine, inst, g, &mut stats, &mut ws.tracer, budget, None)
                };
                match run {
                    Ok(bailed) => outcome_with_budget(inst, g, stats, bailed, &mut ws.tracer),
                    Err(e) => Err(e),
                }
            })
        };
    }
    let result = match parallel {
        None => run_on!(&mut ws.engine),
        Some(_) => run_on!(&mut ws.parallel.as_mut().expect("parallel engine cached").1),
    };
    ws.complete();
    result
}

/// Replaces `engine`'s excesses with the staged warm excesses of `g`'s
/// vertices.
fn load_excess<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    g: &FlowGraph<W>,
    excess: &[i64],
) {
    engine.reset_excess(g.num_vertices());
    for (v, &x) in excess.iter().enumerate() {
        if x != 0 {
            engine.set_excess(v, x);
        }
    }
}

/// Attaches the anytime bookkeeping to a finished solve: when the driver
/// bailed out on an expired budget (`bailed = Some(lower_bound)`), the
/// gap between the achieved response time and that lower bound lands in
/// [`SolveStats`] and a [`TraceEvent::BudgetExpired`] is emitted. The
/// flow must retrieve every bucket in both cases — budget bail-outs
/// finalize at a known-feasible budget, never with a partial flow.
pub(crate) fn outcome_with_budget<W: ArenaIndex>(
    inst: &RetrievalInstance,
    g: &FlowGraph<W>,
    stats: SolveStats,
    bailed: Option<Micros>,
    tracer: &mut Tracer,
) -> Result<RetrievalOutcome, SolveError> {
    let mut outcome = RetrievalOutcome::try_from_flow(inst, g, stats)?;
    if let Some(lower) = bailed {
        outcome.stats.budget_expirations = 1;
        outcome.stats.anytime_gap = outcome.response_time.saturating_sub(lower);
        tracer.emit(TraceEvent::BudgetExpired {
            achieved: outcome.response_time,
            lower_bound: lower,
        });
    }
    Ok(outcome)
}

/// Probe-scale work performed so far — the deterministic step count an
/// [`ArmedBudget`] probe limit is checked against. Binary-search probes,
/// capacity increments and augmenting-path searches all count equally.
#[inline]
pub(crate) fn budget_work(stats: &SolveStats) -> u64 {
    stats.probes + stats.increments + stats.dfs_calls
}

/// The incremental phase (Algorithm 5): alternate `IncrementMinCost` and a
/// flow-conserving resume until the sink's excess reaches `|Q|`.
///
/// Anytime mode: when `budget` expires mid-phase, the disk capacities are
/// raised straight to the feasible upper bound `t_max` (from `bounds`, or
/// freshly tightened greedy bounds when the caller had none) and one final
/// resume completes the flow there. Capacities only ever *rise* on this
/// path — the incremental caps never exceed `capacity_within(t*)` and
/// `t* ≤ t_max` — so the live preflow stays valid. Returns
/// `Ok(Some(lower_bound))` for such a bail-out, `Ok(None)` for a run to
/// the exact optimum.
fn incremental_phase<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    inst: &RetrievalInstance,
    g: &mut FlowGraph<W>,
    stats: &mut SolveStats,
    tracer: &mut Tracer,
    budget: ArmedBudget,
    bounds: Option<(Micros, Micros)>,
) -> Result<Option<Micros>, SolveError> {
    let q = inst.query_size() as i64;
    if q == 0 {
        return Ok(None);
    }
    let (s, t) = (inst.source(), inst.sink());
    let mut inc = MinCostIncrementer::new(inst);
    // The capacities may already admit the full flow (e.g. after the
    // binary phase lands exactly on the optimum's predecessor); probe once
    // before incrementing only if flow is already recorded.
    while engine.excess(t) != q {
        if budget.expired(budget_work(stats)) {
            let (t_lo, t_hi) = bounds.unwrap_or_else(|| {
                let (lo, hi, _) = inst.tightened_bounds(&mut Vec::new());
                (lo, hi)
            });
            inst.set_caps_for_budget(g, t_hi);
            let flow = resume_traced(engine, g, s, t, stats, tracer);
            if flow != q {
                return Err(SolveError::Infeasible {
                    bucket: None,
                    delivered: flow,
                    required: q,
                });
            }
            return Ok(Some(t_lo));
        }
        let raised = inc.increment(inst, g);
        stats.increments += 1;
        tracer.emit(TraceEvent::CapacityIncrement {
            edges: raised as u32,
        });
        if raised == 0 {
            return Err(SolveError::Infeasible {
                bucket: None,
                delivered: engine.excess(t),
                required: q,
            });
        }
        resume_traced(engine, g, s, t, stats, tracer);
    }
    Ok(None)
}

/// One flow-conserving resume with its push/relabel work attributed: the
/// engine's cumulative operation counters are differenced around the call,
/// folded into `stats`, and emitted as a [`TraceEvent::RelabelPass`].
fn resume_traced<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    g: &mut FlowGraph<W>,
    s: rds_flow::graph::VertexId,
    t: rds_flow::graph::VertexId,
    stats: &mut SolveStats,
    tracer: &mut Tracer,
) -> i64 {
    let (pushes_before, relabels_before) = engine.op_counts();
    let flow = engine.resume(g, s, t);
    stats.resume_calls += 1;
    let (pushes, relabels) = engine.op_counts();
    let (pushes, relabels) = (pushes - pushes_before, relabels - relabels_before);
    stats.pushes += pushes;
    stats.relabels += relabels;
    tracer.emit(TraceEvent::RelabelPass { pushes, relabels });
    flow
}

/// The full Algorithm 6 driver, generic over the max-flow engine. The
/// `stored_flows`/`stored_excess` buffers hold the `StoreFlows` rollback
/// state; passing them in (from a [`Workspace`]) makes the per-probe
/// snapshots allocation-free.
#[allow(clippy::too_many_arguments)]
fn binary_scaling_integrated<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    inst: &RetrievalInstance,
    g: &mut FlowGraph<W>,
    stats: &mut SolveStats,
    stored_flows: &mut Vec<i64>,
    stored_excess: &mut Vec<i64>,
    tracer: &mut Tracer,
    budget: ArmedBudget,
) -> Result<Option<Micros>, SolveError> {
    let q = inst.query_size() as i64;
    if q == 0 {
        return Ok(None);
    }
    let (s, t) = (inst.source(), inst.sink());
    let n = g.num_vertices();
    // `stored_excess` doubles as the greedy counter scratch here; it is
    // (re)initialized as the excess snapshot right below.
    let (mut t_min, mut t_max, min_speed) = inst.tightened_bounds(stored_excess);

    // `StoreFlows` state: flow and excess of the most recent *failed*
    // probe (a preflow that stays feasible for every budget above its
    // probe point). Initially the zero state.
    g.store_flows_into(stored_flows);
    stored_excess.clear();
    stored_excess.resize(n, 0);

    while t_max - t_min >= min_speed {
        // Anytime bail-out. At the loop top the live flow equals the last
        // failed-probe snapshot, whose per-edge flow never exceeds
        // `capacity_within(t_max)` (failed probes sit strictly below
        // `t_max`), so raising the caps to the known-feasible `t_max` and
        // resuming once completes the flow there.
        if budget.expired(budget_work(stats)) {
            inst.set_caps_for_budget(g, t_max);
            let flow = resume_traced(engine, g, s, t, stats, tracer);
            if flow != q {
                return Err(SolveError::Infeasible {
                    bucket: None,
                    delivered: flow,
                    required: q,
                });
            }
            return Ok(Some(t_min));
        }
        let t_mid = t_min.midpoint(t_max);
        inst.set_caps_for_budget(g, t_mid);
        tracer.emit(TraceEvent::ProbeStart { budget: t_mid });
        let flow = resume_traced(engine, g, s, t, stats, tracer);
        stats.probes += 1;
        tracer.emit(TraceEvent::ProbeEnd {
            budget: t_mid,
            feasible: flow == q,
        });
        if flow != q {
            // No solution at t_mid (lines 30-33): keep the state we just
            // computed — it stays feasible for all larger budgets.
            g.store_flows_into(stored_flows);
            engine.excess_snapshot_into(n, stored_excess);
            t_min = t_mid;
        } else {
            // Solution found but possibly not optimal (lines 34-37):
            // shrink from above and roll back to the last failed state so
            // the smaller capacities of future probes are respected.
            g.restore_flows(stored_flows);
            engine.restore_excess(stored_excess);
            t_max = t_mid;
        }
    }

    // Lines 38-42: roll back, fix capacities at t_min, finish with the
    // incremental phase.
    g.restore_flows(stored_flows);
    engine.restore_excess(stored_excess);
    inst.set_caps_for_budget(g, t_min);
    incremental_phase(engine, inst, g, stats, tracer, budget, Some((t_min, t_max)))
}

/// Cancels the warm flow unit of every bucket slot whose identity changed
/// in the patch. Each stale unit still rides a `source → bucket → disk →
/// sink` path whose replica arc the patch capped to zero; unwinding the
/// path through the residual graph returns the unit's excess from the sink
/// to the source, where the resume re-routes it through the slot's new
/// replica arcs. Returns the number of units cancelled.
fn cancel_stale_units<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    inst: &RetrievalInstance,
    g: &mut FlowGraph<W>,
    changed: &[usize],
) -> u32 {
    let mut cancelled = 0;
    for &i in changed {
        let sb = inst.bucket_edges[i];
        if g.flow(sb) <= 0 {
            continue;
        }
        let b = inst.bucket_vertex(i);
        let mut path = None;
        for k in 0..g.out_edges(b).len() {
            let e = g.out_edges(b)[k] as usize;
            if e.is_multiple_of(2) && g.flow(e) > 0 {
                let j = inst.disk_of_vertex(g.target(e));
                path = Some([sb, e, inst.disk_edges[j]]);
                break;
            }
        }
        if let Some(p) = path {
            cancel_path(engine, g, &p, 1);
            cancelled += 1;
        }
    }
    cancelled
}

/// Retargets every disk-edge capacity to budget `t`, draining any flow the
/// smaller capacities orphan into disk-vertex excess (the warm equivalent
/// of [`RetrievalInstance::set_caps_for_budget`], which assumes the caller
/// will discard or roll back the flow).
fn retarget_caps<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    inst: &RetrievalInstance,
    g: &mut FlowGraph<W>,
    t: Micros,
) {
    for (j, &e) in inst.disk_edges.iter().enumerate() {
        retarget_capacity(engine, g, e, inst.disks[j].capacity_within(t) as i64);
    }
}

/// Algorithm 6 re-run from a warm, delta-patched flow instead of from
/// zero. Where the cold driver conserves flow across probes with
/// `StoreFlows`/`RestoreFlows` snapshots, the warm driver never snapshots:
/// each probe *retargets* the disk capacities in place, draining orphaned
/// flow into disk excess that the next resume re-routes. Push-relabel
/// correctness needs only a valid preflow, so the surgery is safe for any
/// flow-conserving engine. With `binary` false this is the warm Algorithm
/// 5: skip the probes and run the incremental phase from the
/// min-cost-prefix capacities at `t_min`.
#[allow(clippy::too_many_arguments)]
fn warm_integrated<W: ArenaIndex, E: IncrementalMaxFlow<W>>(
    engine: &mut E,
    inst: &RetrievalInstance,
    g: &mut FlowGraph<W>,
    stats: &mut SolveStats,
    scratch: &mut Vec<i64>,
    changed: &[usize],
    tracer: &mut Tracer,
    binary: bool,
    budget: ArmedBudget,
) -> Result<Option<Micros>, SolveError> {
    let cancelled = cancel_stale_units(engine, inst, g, changed);
    tracer.emit(TraceEvent::DeltaPatch {
        changed: changed.len() as u32,
        cancelled,
    });
    let q = inst.query_size() as i64;
    if q == 0 {
        return Ok(None);
    }
    let (s, t) = (inst.source(), inst.sink());
    let (mut t_min, mut t_max, min_speed) = inst.tightened_bounds(scratch);
    if binary {
        while t_max - t_min >= min_speed {
            // Anytime bail-out: retarget straight to the known-feasible
            // upper bound (the retarget drains any flow a lower previous
            // probe cap orphans) and resume once to complete the flow.
            if budget.expired(budget_work(stats)) {
                retarget_caps(engine, inst, g, t_max);
                let flow = resume_traced(engine, g, s, t, stats, tracer);
                if flow != q {
                    return Err(SolveError::Infeasible {
                        bucket: None,
                        delivered: flow,
                        required: q,
                    });
                }
                return Ok(Some(t_min));
            }
            let t_mid = t_min.midpoint(t_max);
            retarget_caps(engine, inst, g, t_mid);
            tracer.emit(TraceEvent::ProbeStart { budget: t_mid });
            let flow = resume_traced(engine, g, s, t, stats, tracer);
            stats.probes += 1;
            tracer.emit(TraceEvent::ProbeEnd {
                budget: t_mid,
                feasible: flow == q,
            });
            if flow != q {
                t_min = t_mid;
            } else {
                t_max = t_mid;
            }
        }
    }
    // Land on the min-cost-prefix capacities at t_min (infeasible or
    // trivially low) and let the incremental phase find the exact optimum,
    // exactly as the cold driver does after its final rollback.
    retarget_caps(engine, inst, g, t_min);
    incremental_phase(engine, inst, g, stats, tracer, budget, Some((t_min, t_max)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ff::FordFulkersonIncremental;
    use crate::verify::{assert_outcome_valid, oracle_optimal_response};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::periodic::DependentPeriodicAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_decluster::rda::RandomDuplicateAllocation;
    use rds_storage::experiments::{experiment, paper_example, ExperimentId};
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;
    use rds_storage::time::Micros;

    #[test]
    fn binary_solves_paper_q1_basic() {
        let system = SystemConfig::homogeneous(CHEETAH, 7);
        let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
        let q1 = RangeQuery::new(0, 0, 3, 2);
        let inst = RetrievalInstance::build(&system, &alloc, &q1.buckets(7));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 6);
        assert_eq!(outcome.response_time, Micros::from_tenths_ms(61));
        assert_outcome_valid(&inst, &outcome);
    }

    #[test]
    fn incremental_and_binary_agree_on_paper_example() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        for (r, c) in [(3usize, 2usize), (7, 7), (1, 1), (4, 6)] {
            let q = RangeQuery::new(1, 2, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let a = PushRelabelIncremental.solve(&inst).unwrap();
            let b = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(a.response_time, b.response_time, "query {r}x{c}");
            assert_outcome_valid(&inst, &a);
            assert_outcome_valid(&inst, &b);
            assert_eq!(b.response_time, oracle_optimal_response(&inst));
        }
    }

    #[test]
    fn binary_uses_fewer_increments_than_incremental() {
        // The whole point of the binary phase: capacity values are brought
        // near the optimum in O(log |Q|) probes instead of O(c|Q|)
        // single-step increments.
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(0, 0, 7, 7);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let a = PushRelabelIncremental.solve(&inst).unwrap();
        let b = PushRelabelBinary.solve(&inst).unwrap();
        assert!(
            b.stats.increments < a.stats.increments,
            "binary {} vs incremental {}",
            b.stats.increments,
            a.stats.increments
        );
    }

    #[test]
    fn agrees_with_ford_fulkerson_across_experiments() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(17);
        for id in ExperimentId::ALL {
            let n = rng.gen_range(4..9);
            let system = experiment(id, n, rng.gen_u64());
            let alloc = RandomDuplicateAllocation::two_site(n, rng.gen_u64());
            let r = rng.gen_range(1..=n);
            let c = rng.gen_range(1..=n);
            let q = RangeQuery::new(rng.gen_range(0..n), rng.gen_range(0..n), r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let ff = FordFulkersonIncremental.solve(&inst).unwrap();
            let pr = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(
                ff.response_time, pr.response_time,
                "experiment {:?} n={n}",
                id
            );
            assert_outcome_valid(&inst, &pr);
        }
    }

    #[test]
    fn optimal_on_random_exp5_instances() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(23);
        for case in 0..8 {
            let n = rng.gen_range(3..8);
            let system = experiment(ExperimentId::Exp5, n, rng.gen_u64());
            let alloc = DependentPeriodicAllocation::new(n, Placement::PerSite);
            let r = rng.gen_range(1..=n);
            let c = rng.gen_range(1..=n);
            let q = RangeQuery::new(rng.gen_range(0..n), rng.gen_range(0..n), r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let outcome = PushRelabelBinary.solve(&inst).unwrap();
            assert_outcome_valid(&inst, &outcome);
            assert_eq!(
                outcome.response_time,
                oracle_optimal_response(&inst),
                "case {case} n={n}"
            );
        }
    }

    #[test]
    fn empty_query() {
        let system = SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::new(4, Placement::SingleSite);
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 0);
        assert_eq!(outcome.response_time, Micros::ZERO);
    }

    #[test]
    fn single_bucket_query_picks_fastest_replica() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(0, 0, 1, 1);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 1);
        // The best replica is whichever of the two copies has the lower
        // single-bucket completion time; both candidates are 11.3ms
        // (site 1 raptor) or 7.1/14.2ms (site 2).
        let (b, d) = outcome.schedule.assignments()[0];
        assert_eq!(b, rds_decluster::query::Bucket::new(0, 0));
        assert_eq!(outcome.response_time, inst.disks[d].completion_time(1));
        assert_eq!(outcome.response_time, oracle_optimal_response(&inst));
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // One workspace threaded through differently-shaped queries and
        // both algorithms must reproduce the fresh-workspace results.
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let mut ws = Workspace::new();
        for (r, c) in [(7usize, 7usize), (1, 1), (3, 2), (5, 4)] {
            let q = RangeQuery::new(0, 0, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let reused = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
            let fresh = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(reused.response_time, fresh.response_time, "{r}x{c}");
            let reused = PushRelabelIncremental.solve_in(&inst, &mut ws).unwrap();
            assert_eq!(reused.response_time, fresh.response_time, "{r}x{c}");
        }
        assert_eq!(ws.solves(), 8);
    }

    #[test]
    fn probes_scale_logarithmically() {
        let system = experiment(ExperimentId::Exp5, 10, 3);
        let alloc = OrthogonalAllocation::new(10, Placement::PerSite);
        let q = RangeQuery::new(0, 0, 10, 10);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(10));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        // The budget range spans ~|Q| * C_max / min_speed values; probes
        // are its base-2 log — generously under 64.
        assert!(outcome.stats.probes < 64, "{} probes", outcome.stats.probes);
        assert_outcome_valid(&inst, &outcome);
    }
}
