//! Unified solver selection: [`SolverKind`], [`SolverSpec`] and the
//! [`AnySolver`] dispatch type.
//!
//! The seven solver structs all implement
//! [`RetrievalSolver`], but picking one at
//! runtime previously meant threading a generic parameter (or a `Box<dyn>`)
//! through every layer. [`SolverKind`] names each algorithm as plain data,
//! [`SolverSpec`] pairs a kind with the policy around it (thread count,
//! reuse, objective, budget, arena width, SLOs, fused drains) — the one
//! configuration value every engine and session is built from — and
//! [`SolverSpec::build`] materializes an
//! [`AnySolver`] — a zero-allocation enum that dispatches to the concrete
//! solver and inherits its delta-solve capability.

use crate::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
use crate::error::SolveError;
use crate::ff::{FordFulkersonBasic, FordFulkersonIncremental};
use crate::network::RetrievalInstance;
use crate::obs::slo::SloPolicy;
use crate::parallel::ParallelPushRelabelBinary;
use crate::pr::{PushRelabelBinary, PushRelabelIncremental};
use crate::schedule::RetrievalOutcome;
use crate::session::ReusePolicy;
use crate::solver::RetrievalSolver;
use crate::workspace::Workspace;
use std::time::Duration;

/// An *anytime* solve budget: limits on how long one solve may run.
///
/// Solvers check the budget at probe-scale boundaries (binary-search
/// probes, capacity-increment steps, augmenting-path searches). When it
/// expires mid-solve they stop refining, finalize the best feasible
/// schedule currently known (the greedy upper bound `t_max`, tightened by
/// every feasible probe so far), and report the remaining
/// achieved-vs-optimal gap in
/// [`SolveStats::anytime_gap`](crate::schedule::SolveStats::anytime_gap)
/// plus a [`TraceEvent::BudgetExpired`](crate::obs::trace::TraceEvent::BudgetExpired).
/// An expired budget therefore still yields a complete, feasible — just
/// possibly sub-optimal — schedule; it never fails the solve.
///
/// The default budget is unlimited, and an unlimited budget is
/// guaranteed bit-identical to pre-budget behaviour: no clock is read
/// and no extra work is done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SolveBudget {
    /// Wall-clock limit for one solve (`None` = unlimited). Checked with
    /// a monotonic clock at probe boundaries, so overshoot is bounded by
    /// one probe's work.
    pub wall_clock: Option<Duration>,
    /// Limit on probe-scale solver steps — binary-search probes,
    /// capacity increments and augmenting-path searches all count
    /// (`None` = unlimited). Deterministic, unlike wall-clock limits:
    /// the same instance and limit always expire at the same point.
    pub max_probes: Option<u64>,
}

impl SolveBudget {
    /// No limits (the default): solves run to the exact optimum.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        wall_clock: None,
        max_probes: None,
    };

    /// An unlimited budget.
    pub fn unlimited() -> SolveBudget {
        SolveBudget::UNLIMITED
    }

    /// Limits wall-clock time per solve.
    pub fn with_wall_clock(mut self, limit: Duration) -> SolveBudget {
        self.wall_clock = Some(limit);
        self
    }

    /// Limits probe-scale solver steps per solve.
    pub fn with_max_probes(mut self, limit: u64) -> SolveBudget {
        self.max_probes = Some(limit);
        self
    }

    /// True when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.wall_clock.is_none() && self.max_probes.is_none()
    }
}

/// Which index/capacity width the workspace's graph arena should use.
///
/// The arena is monomorphized over its capacity width (`i32` or `i64`).
/// Compact (`i32`) capacities halve the hot `cap`/`flow` arrays and
/// measurably speed up discharge-heavy solves, but can only hold
/// instances whose total capacity at the upper response-time bound fits
/// in 31 bits. `Auto` (the default) measures each instance's bound and
/// picks Compact whenever it is safe, falling back to Wide otherwise —
/// so most callers never need to touch this knob.
///
/// Both layouts are bit-identical in results: schedules, op counts and
/// phase digests do not depend on the width.
///
/// Marked `#[non_exhaustive]`: future PRs may add widths (e.g. `u16`
/// capacities for unit-capacity retrieval networks), so match with a
/// `_` arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ArenaLayout {
    /// Per-instance automatic selection: Compact when the instance's
    /// capacity bound fits `i32` with a safety margin, Wide otherwise.
    #[default]
    Auto,
    /// Force the `i32` arena. Solves fail with
    /// [`SolveError::ArenaOverflow`](crate::error::SolveError) when the
    /// instance does not fit.
    Compact,
    /// Force the `i64` arena (the pre-PR-9 behaviour).
    Wide,
}

impl ArenaLayout {
    /// Stable snake_case name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            ArenaLayout::Auto => "auto",
            ArenaLayout::Compact => "compact",
            ArenaLayout::Wide => "wide",
        }
    }
}

/// Names one of the seven retrieval algorithms.
///
/// All kinds compute the same optimal response time; they differ in
/// execution cost and in whether they can delta-solve a warm workspace
/// (see [`SolverKind::supports_delta`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SolverKind {
    /// Algorithm 1: integrated Ford-Fulkerson for the basic problem
    /// (identical disks, no initial load).
    FordFulkersonBasic,
    /// Algorithms 2+3: integrated incremental Ford-Fulkerson for the
    /// generalized problem.
    FordFulkersonIncremental,
    /// Algorithm 5: integrated incremental push-relabel.
    PushRelabelIncremental,
    /// Algorithm 6: push-relabel with binary capacity scaling and flow
    /// conservation across probes. The paper's headline algorithm.
    PushRelabelBinary,
    /// Section V: lock-free parallel variant of Algorithm 6.
    ParallelPushRelabelBinary,
    /// Baseline \[12\]: binary scaling over a from-scratch push-relabel.
    BlackBoxPushRelabel,
    /// Baseline \[18\]: from-scratch Ford-Fulkerson per probe.
    BlackBoxFordFulkerson,
}

impl SolverKind {
    /// Every kind, in the paper's presentation order.
    pub const ALL: [SolverKind; 7] = [
        SolverKind::FordFulkersonBasic,
        SolverKind::FordFulkersonIncremental,
        SolverKind::PushRelabelIncremental,
        SolverKind::PushRelabelBinary,
        SolverKind::ParallelPushRelabelBinary,
        SolverKind::BlackBoxPushRelabel,
        SolverKind::BlackBoxFordFulkerson,
    ];

    /// The solver's report name — identical to
    /// [`RetrievalSolver::name`] of the solver it builds.
    pub fn name(self) -> &'static str {
        // Delegate to the concrete solvers so the two can never drift.
        match self {
            SolverKind::FordFulkersonBasic => FordFulkersonBasic.name(),
            SolverKind::FordFulkersonIncremental => FordFulkersonIncremental.name(),
            SolverKind::PushRelabelIncremental => PushRelabelIncremental.name(),
            SolverKind::PushRelabelBinary => PushRelabelBinary.name(),
            SolverKind::ParallelPushRelabelBinary => ParallelPushRelabelBinary::default().name(),
            SolverKind::BlackBoxPushRelabel => BlackBoxPushRelabel.name(),
            SolverKind::BlackBoxFordFulkerson => BlackBoxFordFulkerson.name(),
        }
    }

    /// Whether the built solver can delta-solve a warm workspace. Kinds
    /// that return `false` still work under a warm [`ReusePolicy`] —
    /// sessions fall back to a full rebuild per query.
    pub fn supports_delta(self) -> bool {
        SolverSpec::new(self).build().supports_delta()
    }
}

/// Which schedule, among all response-time-optimal ones, a solve should
/// return.
///
/// The paper's algorithms accept *any* maximum flow at the optimal
/// response time `t*`; per-disk load spread among those flows varies
/// wildly. A refining objective runs a min-cost pass over the residual
/// network after `t*` is fixed — holding the flow value (and therefore
/// `t*`) constant — to pick a load-balanced optimum.
///
/// Marked `#[non_exhaustive]`: future PRs may add objectives (placement
/// and repair co-optimization are on the roadmap), so match with a `_`
/// arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScheduleObjective {
    /// Return the first flow the solver finds at `t*` — no refinement,
    /// the pre-objective behaviour and the cheapest option.
    #[default]
    FirstFeasible,
    /// Minimize total weighted load `Σ_j k_j · C_j` (buckets served per
    /// disk times that disk's per-bucket access cost), breaking ties
    /// toward even per-disk counts. Never increases total weighted load
    /// relative to any feasible schedule.
    MinTotalLoad,
    /// Minimize a piecewise-convex penalty on per-disk weighted load
    /// (each additional bucket on disk `j` costs `k · C_j`), which pushes
    /// down the maximum and spreads load across disks.
    MinMaxLoad,
}

impl ScheduleObjective {
    /// True when this objective runs a refinement pass after the solve.
    pub fn refines(self) -> bool {
        !matches!(self, ScheduleObjective::FirstFeasible)
    }

    /// Stable snake_case name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleObjective::FirstFeasible => "first_feasible",
            ScheduleObjective::MinTotalLoad => "min_total_load",
            ScheduleObjective::MinMaxLoad => "min_max_load",
        }
    }
}

/// A solver kind plus the policy around it — the one configuration
/// surface of [`EngineBuilder`](crate::engine::EngineBuilder) and
/// [`RetrievalSession::from_spec`](crate::session::RetrievalSession::from_spec).
/// Serving-loop knobs live on [`ServeConfig`](crate::serve::ServeConfig).
///
/// ```
/// use rds_core::prelude::*;
///
/// let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
///     .objective(ScheduleObjective::MinTotalLoad)
///     .reuse(ReusePolicy::warm());
/// assert_eq!(spec.build().name(), "PR-binary");
/// assert!(spec.reuse.warm_start);
/// ```
///
/// Marked `#[non_exhaustive]`: construct with [`SolverSpec::new`] and
/// the chainable setters; fields stay readable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolverSpec {
    /// Which algorithm to run.
    pub kind: SolverKind,
    /// Worker threads for [`SolverKind::ParallelPushRelabelBinary`]
    /// (`0` = the solver's default of 2, the paper's evaluation setup);
    /// ignored by the other kinds. The engine sizes its shared worker
    /// pool from this value.
    pub parallelism: usize,
    /// Cross-query reuse per stream: warm-start delta solving and the
    /// schedule cache (both off by default). Kinds without delta support
    /// fall back to a rebuild per query.
    pub reuse: ReusePolicy,
    /// Which response-time-optimal schedule to return.
    pub objective: ScheduleObjective,
    /// Anytime budget applied to every solve ([`SolveBudget::UNLIMITED`]
    /// by default — exact optimum, pre-budget behaviour). The serving
    /// loop further tightens it per query from the request's deadline.
    pub budget: SolveBudget,
    /// Per-priority-class service-level objectives tracked by
    /// [`Engine::serve`](crate::engine::Engine::serve). The default
    /// policy tracks the Interactive and Standard classes; use
    /// [`SloPolicy::disabled`] to silence the `rds_slo_*` series.
    /// Engines only: sessions have no serving loop.
    pub slo: SloPolicy,
    /// Which arena width workspaces solve in
    /// ([`ArenaLayout::Auto`] by default — per-instance selection).
    pub arena_layout: ArenaLayout,
    /// Fuse drains: when a drain (a serve batch window or a
    /// `submit_batch` call) holds queries of two or more streams,
    /// schedule the per-stream groups *across* the engine's shared
    /// worker pool (distinct streams in parallel, each solve sequential)
    /// on lanes with epoch-shared CSR topology planes, instead of solving
    /// them serially on one lane. Off by default. Results are
    /// bit-identical either way; only wall-clock and plane residency
    /// change. Engines only: a session has one stream.
    pub batch_fuse: bool,
}

impl SolverSpec {
    /// A spec with reuse disabled and no refining objective — the
    /// pre-reuse behaviour.
    pub fn new(kind: SolverKind) -> SolverSpec {
        SolverSpec {
            kind,
            parallelism: 0,
            reuse: ReusePolicy::default(),
            objective: ScheduleObjective::FirstFeasible,
            budget: SolveBudget::UNLIMITED,
            slo: SloPolicy::default(),
            arena_layout: ArenaLayout::Auto,
            batch_fuse: false,
        }
    }

    /// Enables or disables fused batch-window solves (see
    /// [`SolverSpec::batch_fuse`]).
    pub fn batch_fuse(mut self, on: bool) -> SolverSpec {
        self.batch_fuse = on;
        self
    }

    /// Sets the worker-thread count for the parallel solver (and the
    /// engine's shared worker pool).
    pub fn parallelism(mut self, threads: usize) -> SolverSpec {
        self.parallelism = threads;
        self
    }

    /// Sets the arena width policy for every solve under this spec.
    pub fn arena_layout(mut self, layout: ArenaLayout) -> SolverSpec {
        self.arena_layout = layout;
        self
    }

    /// Sets the schedule objective.
    pub fn objective(mut self, objective: ScheduleObjective) -> SolverSpec {
        self.objective = objective;
        self
    }

    /// Sets the anytime solve budget.
    pub fn budget(mut self, budget: SolveBudget) -> SolverSpec {
        self.budget = budget;
        self
    }

    /// Sets the per-class SLO policy tracked by the serving loop.
    pub fn slo(mut self, policy: SloPolicy) -> SolverSpec {
        self.slo = policy;
        self
    }

    /// Sets the cross-query reuse policy.
    pub fn reuse(mut self, policy: ReusePolicy) -> SolverSpec {
        self.reuse = policy;
        self
    }

    /// Solves one instance under this spec's kind and objective: a cold
    /// solve in a fresh workspace, followed by the objective's
    /// refinement pass at the fixed optimal response time. The
    /// convenience entry point for one-off refined solves; sessions and
    /// the engine refine in their own reusable workspaces.
    pub fn solve(&self, instance: &RetrievalInstance) -> Result<RetrievalOutcome, SolveError> {
        let mut ws = Workspace::new();
        ws.set_arena_layout(self.arena_layout);
        ws.arm_budget(self.budget);
        let mut outcome = self.build().solve_in(instance, &mut ws)?;
        crate::refine::refine_in(self.objective, instance, &mut ws, &mut outcome)?;
        Ok(outcome)
    }

    /// Materializes the solver this spec describes.
    pub fn build(&self) -> AnySolver {
        match self.kind {
            SolverKind::FordFulkersonBasic => AnySolver::FordFulkersonBasic(FordFulkersonBasic),
            SolverKind::FordFulkersonIncremental => {
                AnySolver::FordFulkersonIncremental(FordFulkersonIncremental)
            }
            SolverKind::PushRelabelIncremental => {
                AnySolver::PushRelabelIncremental(PushRelabelIncremental)
            }
            SolverKind::PushRelabelBinary => AnySolver::PushRelabelBinary(PushRelabelBinary),
            SolverKind::ParallelPushRelabelBinary => {
                AnySolver::ParallelPushRelabelBinary(if self.parallelism == 0 {
                    ParallelPushRelabelBinary::default()
                } else {
                    ParallelPushRelabelBinary::new(self.parallelism)
                })
            }
            SolverKind::BlackBoxPushRelabel => AnySolver::BlackBoxPushRelabel(BlackBoxPushRelabel),
            SolverKind::BlackBoxFordFulkerson => {
                AnySolver::BlackBoxFordFulkerson(BlackBoxFordFulkerson)
            }
        }
    }
}

impl From<SolverKind> for SolverSpec {
    fn from(kind: SolverKind) -> SolverSpec {
        SolverSpec::new(kind)
    }
}

/// Enum dispatch over the seven concrete solvers.
///
/// Unlike `Box<dyn RetrievalSolver>` this is `Copy`-cheap, `Send + Sync`
/// by construction, and needs no allocation — the engine clones one per
/// shard worker.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub enum AnySolver {
    /// See [`SolverKind::FordFulkersonBasic`].
    FordFulkersonBasic(FordFulkersonBasic),
    /// See [`SolverKind::FordFulkersonIncremental`].
    FordFulkersonIncremental(FordFulkersonIncremental),
    /// See [`SolverKind::PushRelabelIncremental`].
    PushRelabelIncremental(PushRelabelIncremental),
    /// See [`SolverKind::PushRelabelBinary`].
    PushRelabelBinary(PushRelabelBinary),
    /// See [`SolverKind::ParallelPushRelabelBinary`].
    ParallelPushRelabelBinary(ParallelPushRelabelBinary),
    /// See [`SolverKind::BlackBoxPushRelabel`].
    BlackBoxPushRelabel(BlackBoxPushRelabel),
    /// See [`SolverKind::BlackBoxFordFulkerson`].
    BlackBoxFordFulkerson(BlackBoxFordFulkerson),
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnySolver::FordFulkersonBasic($s) => $body,
            AnySolver::FordFulkersonIncremental($s) => $body,
            AnySolver::PushRelabelIncremental($s) => $body,
            AnySolver::PushRelabelBinary($s) => $body,
            AnySolver::ParallelPushRelabelBinary($s) => $body,
            AnySolver::BlackBoxPushRelabel($s) => $body,
            AnySolver::BlackBoxFordFulkerson($s) => $body,
        }
    };
}

impl AnySolver {
    /// The kind this solver was built from.
    pub fn kind(&self) -> SolverKind {
        match self {
            AnySolver::FordFulkersonBasic(_) => SolverKind::FordFulkersonBasic,
            AnySolver::FordFulkersonIncremental(_) => SolverKind::FordFulkersonIncremental,
            AnySolver::PushRelabelIncremental(_) => SolverKind::PushRelabelIncremental,
            AnySolver::PushRelabelBinary(_) => SolverKind::PushRelabelBinary,
            AnySolver::ParallelPushRelabelBinary(_) => SolverKind::ParallelPushRelabelBinary,
            AnySolver::BlackBoxPushRelabel(_) => SolverKind::BlackBoxPushRelabel,
            AnySolver::BlackBoxFordFulkerson(_) => SolverKind::BlackBoxFordFulkerson,
        }
    }
}

impl RetrievalSolver for AnySolver {
    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    fn solve_in(
        &self,
        instance: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        dispatch!(self, s => s.solve_in(instance, ws))
    }

    fn supports_delta(&self) -> bool {
        dispatch!(self, s => s.supports_delta())
    }

    fn resume_in(
        &self,
        instance: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        dispatch!(self, s => s.resume_in(instance, ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};

    #[test]
    fn kind_names_match_built_solvers() {
        for kind in SolverKind::ALL {
            let solver = SolverSpec::new(kind).build();
            assert_eq!(kind.name(), solver.name());
            assert_eq!(solver.kind(), kind);
        }
        let names: Vec<&str> = SolverKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "FF-basic",
                "FF-incremental",
                "PR-incremental",
                "PR-binary",
                "PR-binary-parallel",
                "BB-PR",
                "BB-FF",
            ]
        );
    }

    #[test]
    fn delta_support_matrix() {
        use SolverKind::*;
        for kind in SolverKind::ALL {
            let expected = matches!(
                kind,
                PushRelabelIncremental | PushRelabelBinary | ParallelPushRelabelBinary
            );
            assert_eq!(kind.supports_delta(), expected, "{}", kind.name());
        }
    }

    #[test]
    fn spec_builder_sets_knobs() {
        let spec = SolverSpec::new(SolverKind::ParallelPushRelabelBinary)
            .parallelism(2)
            .reuse(ReusePolicy {
                warm_start: true,
                cache_capacity: 4,
            })
            .arena_layout(ArenaLayout::Wide)
            .batch_fuse(true);
        assert_eq!(spec.parallelism, 2);
        assert!(spec.reuse.warm_start);
        assert_eq!(spec.reuse.cache_capacity, 4);
        assert_eq!(spec.arena_layout, ArenaLayout::Wide);
        assert!(spec.batch_fuse);
        assert!(!SolverSpec::new(SolverKind::PushRelabelBinary).batch_fuse);
        assert_eq!(ArenaLayout::default(), ArenaLayout::Auto);
        assert_eq!(ArenaLayout::Compact.name(), "compact");
        assert_eq!(
            SolverSpec::from(SolverKind::PushRelabelBinary).kind,
            SolverKind::PushRelabelBinary
        );
    }

    #[test]
    fn every_kind_solves_a_common_instance() {
        // Homogeneous and unloaded so FF-basic's precondition holds too.
        let system = rds_storage::model::SystemConfig::homogeneous(rds_storage::specs::CHEETAH, 14);
        let alloc = OrthogonalAllocation::paper_7x7();
        let inst =
            RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, 3, 2).buckets(7));
        let reference = SolverSpec::new(SolverKind::PushRelabelBinary)
            .build()
            .solve(&inst)
            .unwrap();
        for kind in SolverKind::ALL {
            let outcome = SolverSpec::new(kind).build().solve(&inst).unwrap();
            assert_eq!(
                outcome.response_time,
                reference.response_time,
                "{} disagrees",
                kind.name()
            );
        }
    }
}
