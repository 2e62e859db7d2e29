//! Typed solver-phase event tracing.
//!
//! Every [`crate::workspace::Workspace`] carries a [`Tracer`]; the solver
//! drivers, [`crate::session::SessionState`], the fault layer and the
//! batch [`crate::engine::Engine`] emit [`TraceEvent`]s through it at the
//! phase boundaries the paper's algorithms define: binary-search probes
//! (Algorithm 6 lines 12–37), augmenting-path searches (Algorithms 1–3),
//! push-relabel resumes (Algorithms 4–6), `IncrementMinCost` steps
//! (Algorithm 3), plus the serving-layer transitions (retries, health
//! changes, degraded serves).
//!
//! Events are small `Copy` values. Emission goes through exactly one
//! indirection — [`Tracer::emit`] — which forwards to the always-on span
//! channel (one `Option` branch while no [`QuerySpan`] is armed) and then
//! to the sink: a single branch while none is installed. See the
//! overhead contract in [`crate::obs`].

use crate::obs::span::{PhaseKind, QuerySpan, SpanCollector};
use rds_storage::time::Micros;

/// One solver-phase event.
///
/// Marked `#[non_exhaustive]`: future PRs may add phases, so sinks must
/// tolerate unknown variants (match with a `_` arm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A solve began in some workspace (`query_size` buckets requested).
    /// Emitted by the workspace's solve prologue
    /// (`crate::workspace::Workspace::begin`), so every solver produces
    /// exactly one per solve.
    SolveStart {
        /// Number of buckets in the query.
        query_size: u32,
    },
    /// A binary-search probe of the budget range began (Algorithm 6 /
    /// black-box scaling).
    ProbeStart {
        /// The response-time budget `t_mid` being probed.
        budget: Micros,
    },
    /// The probe finished: `feasible` says whether the full flow fit the
    /// budget (infeasible probes raise `t_min`, feasible ones lower
    /// `t_max`).
    ProbeEnd {
        /// The probed budget.
        budget: Micros,
        /// Whether the probe delivered the full `|Q|` units.
        feasible: bool,
    },
    /// A successful augmenting-path search routed one unit of flow
    /// (Ford-Fulkerson solvers).
    Augment {
        /// Index of the bucket whose unit was routed, in query order.
        bucket: u32,
    },
    /// One flow-conserving push-relabel resume completed, with the
    /// push/relabel operation deltas it performed.
    RelabelPass {
        /// Push operations in this resume.
        pushes: u64,
        /// Relabel operations in this resume.
        relabels: u64,
    },
    /// One `IncrementMinCost` step raised disk-edge capacities.
    CapacityIncrement {
        /// Number of disk edges whose capacity rose (0 = exhausted).
        edges: u32,
    },
    /// The engine scheduled a replanning re-solve for an infeasible query
    /// after observing a health change at a backoff probe.
    RetryScheduled {
        /// Which retry attempt this is (1-based).
        attempt: u32,
        /// The simulated-time health probe that triggered it.
        probe: Micros,
    },
    /// The health map observed by a stream changed since its previous
    /// query (disks failed, degraded or recovered).
    HealthTransition {
        /// Order-independent digest of the new map
        /// ([`crate::fault::HealthMap::fingerprint`]).
        fingerprint: u64,
    },
    /// A best-effort degraded solve served a subset of the query.
    DegradedServe {
        /// Buckets retrieved.
        served: u32,
        /// Buckets dropped (every replica offline).
        dropped: u32,
    },
    /// A warm workspace was delta-patched from the stream's previous
    /// query instead of rebuilt: `changed` bucket slots swapped identity
    /// and `cancelled` stale flow units were unwound through the residual
    /// network before the resume.
    DeltaPatch {
        /// Bucket slots whose identity changed in the patch.
        changed: u32,
        /// Stale flow units cancelled back to the source.
        cancelled: u32,
    },
    /// A query was answered from the stream's schedule cache without any
    /// solver work.
    CacheHit {
        /// Fingerprint of the cache key (query ⊕ health ⊕ load state).
        fingerprint: u64,
    },
    /// A min-cost refinement pass rebalanced the solved flow at the fixed
    /// optimal response time (see
    /// [`ScheduleObjective`](crate::spec::ScheduleObjective)).
    RefinePass {
        /// Negative residual cycles canceled.
        cycles: u32,
        /// Residual arcs flow was pushed along while canceling.
        moved: u32,
    },
    /// An anytime [`SolveBudget`](crate::spec::SolveBudget) expired
    /// mid-solve; the solver finalized the best feasible schedule known
    /// instead of continuing to the exact optimum.
    BudgetExpired {
        /// Response time of the schedule actually served.
        achieved: Micros,
        /// Tightest known lower bound on the optimal response time at
        /// expiry (`achieved - lower_bound` bounds the optimality gap).
        lower_bound: Micros,
    },
    /// A plane-sharing workspace staged a solve by checking out the
    /// instance's immutable CSR topology plane (Arc-shared) plus fresh
    /// copies of its per-slot arrays, instead of deep-copying the whole
    /// arena.
    /// Emitted only when plane sharing is enabled (the fused batch path).
    PlaneCheckout {
        /// True when the workspace already held this epoch's topology
        /// plane (steady state: the checkout copied only cap/flow values).
        shared: bool,
    },
}

/// Coarse classification of [`TraceEvent`]s, used for per-kind counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// [`TraceEvent::SolveStart`]
    SolveStart = 0,
    /// [`TraceEvent::ProbeStart`]
    ProbeStart,
    /// [`TraceEvent::ProbeEnd`]
    ProbeEnd,
    /// [`TraceEvent::Augment`]
    Augment,
    /// [`TraceEvent::RelabelPass`]
    RelabelPass,
    /// [`TraceEvent::CapacityIncrement`]
    CapacityIncrement,
    /// [`TraceEvent::RetryScheduled`]
    RetryScheduled,
    /// [`TraceEvent::HealthTransition`]
    HealthTransition,
    /// [`TraceEvent::DegradedServe`]
    DegradedServe,
    /// [`TraceEvent::DeltaPatch`]
    DeltaPatch,
    /// [`TraceEvent::CacheHit`]
    CacheHit,
    /// [`TraceEvent::RefinePass`]
    RefinePass,
    /// [`TraceEvent::BudgetExpired`]
    BudgetExpired,
    /// [`TraceEvent::PlaneCheckout`]
    PlaneCheckout,
}

impl EventKind {
    /// Number of kinds (size of a per-kind counter array).
    pub const COUNT: usize = 14;

    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::SolveStart,
        EventKind::ProbeStart,
        EventKind::ProbeEnd,
        EventKind::Augment,
        EventKind::RelabelPass,
        EventKind::CapacityIncrement,
        EventKind::RetryScheduled,
        EventKind::HealthTransition,
        EventKind::DegradedServe,
        EventKind::DeltaPatch,
        EventKind::CacheHit,
        EventKind::RefinePass,
        EventKind::BudgetExpired,
        EventKind::PlaneCheckout,
    ];

    /// Stable snake_case name (used in reports and Prometheus labels).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SolveStart => "solve_start",
            EventKind::ProbeStart => "probe_start",
            EventKind::ProbeEnd => "probe_end",
            EventKind::Augment => "augment",
            EventKind::RelabelPass => "relabel_pass",
            EventKind::CapacityIncrement => "capacity_increment",
            EventKind::RetryScheduled => "retry_scheduled",
            EventKind::HealthTransition => "health_transition",
            EventKind::DegradedServe => "degraded_serve",
            EventKind::DeltaPatch => "delta_patch",
            EventKind::CacheHit => "cache_hit",
            EventKind::RefinePass => "refine_pass",
            EventKind::BudgetExpired => "budget_expired",
            EventKind::PlaneCheckout => "plane_checkout",
        }
    }
}

impl TraceEvent {
    /// The kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::SolveStart { .. } => EventKind::SolveStart,
            TraceEvent::ProbeStart { .. } => EventKind::ProbeStart,
            TraceEvent::ProbeEnd { .. } => EventKind::ProbeEnd,
            TraceEvent::Augment { .. } => EventKind::Augment,
            TraceEvent::RelabelPass { .. } => EventKind::RelabelPass,
            TraceEvent::CapacityIncrement { .. } => EventKind::CapacityIncrement,
            TraceEvent::RetryScheduled { .. } => EventKind::RetryScheduled,
            TraceEvent::HealthTransition { .. } => EventKind::HealthTransition,
            TraceEvent::DegradedServe { .. } => EventKind::DegradedServe,
            TraceEvent::DeltaPatch { .. } => EventKind::DeltaPatch,
            TraceEvent::CacheHit { .. } => EventKind::CacheHit,
            TraceEvent::RefinePass { .. } => EventKind::RefinePass,
            TraceEvent::BudgetExpired { .. } => EventKind::BudgetExpired,
            TraceEvent::PlaneCheckout { .. } => EventKind::PlaneCheckout,
        }
    }
}

/// A consumer of trace events.
///
/// Implementations must be cheap: sinks run inline on the solver hot
/// path. The provided [`Recorder`] is the canonical in-memory sink;
/// custom sinks (a logger, a test probe) implement this trait and are
/// installed with [`crate::workspace::Workspace::set_trace_sink`].
pub trait TraceSink: Send {
    /// Receives one event.
    fn record(&mut self, event: TraceEvent);
}

impl<F: FnMut(TraceEvent) + Send> TraceSink for F {
    fn record(&mut self, event: TraceEvent) {
        self(event)
    }
}

/// Fixed-capacity ring-buffer sink: keeps the most recent `capacity`
/// events and exact per-kind totals for everything ever recorded.
///
/// Never allocates after construction — when the ring is full the oldest
/// event is overwritten and [`Recorder::dropped`] grows, so long solves
/// cannot blow up memory while the per-kind counts stay exact.
#[derive(Clone, Debug)]
pub struct Recorder {
    ring: Vec<TraceEvent>,
    /// Ring capacity (fixed at construction).
    cap: usize,
    /// Index of the next write (wraps).
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Exact totals per [`EventKind`], unaffected by ring overwrites.
    counts: [u64; EventKind::COUNT],
}

impl Recorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Recorder {
        let cap = capacity.max(1);
        Recorder {
            ring: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
            counts: [0; EventKind::COUNT],
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.ring.len() < self.cap {
            return self.ring.clone();
        }
        let mut out = Vec::with_capacity(self.cap);
        for i in 0..self.cap {
            out.push(self.ring[(self.head + i) % self.cap]);
        }
        out
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact total of events of `kind` ever recorded (survives ring
    /// overwrites).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Exact totals for all kinds, indexed by `EventKind as usize`.
    pub fn counts(&self) -> &[u64; EventKind::COUNT] {
        &self.counts
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Forgets retained events and totals (capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
        self.counts = [0; EventKind::COUNT];
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: TraceEvent) {
        self.counts[event.kind() as usize] += 1;
        if self.ring.len() < self.cap {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// The per-workspace emission point.
///
/// Every tracer carries the always-on [`SpanCollector`] — the channel
/// the serving loop uses to capture per-query timelines; while no span
/// is armed it costs one `Option` branch per emit (the path the
/// `engine_speedup` and `span_overhead` benches guard). The sink half is
/// a runtime choice: nothing (one more branch per emit), a [`Recorder`]
/// (typed access preserved for [`crate::engine::Engine::shard_recorder`]), or
/// an arbitrary boxed [`TraceSink`].
#[derive(Debug, Default)]
pub struct Tracer {
    sink: Sink,
    /// The always-on span channel (see [`crate::obs::span`]).
    spans: SpanCollector,
}

#[derive(Debug, Default)]
enum Sink {
    #[default]
    None,
    Ring(Recorder),
    Custom(DynSink),
}

struct DynSink(Box<dyn TraceSink>);

impl std::fmt::Debug for DynSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

impl Tracer {
    /// A tracer with no sink (emits are branches).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Emits one event. The hot-path call: inline, one span-channel
    /// branch while no span is armed, plus one branch without a sink.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        self.spans.observe(&event);
        match &mut self.sink {
            Sink::None => {}
            Sink::Ring(r) => r.record(event),
            Sink::Custom(s) => s.0.record(event),
        }
    }

    /// Arms `span` as the active query span: subsequent coarse emits
    /// append phases to it until [`Tracer::disarm_span`]. Called by the
    /// serving loop around each query.
    #[inline]
    pub(crate) fn arm_span(&mut self, span: QuerySpan) {
        self.spans.arm(span);
    }

    /// Removes and returns the active span (also safe after a contained
    /// solver panic — the collector survives unwinding).
    #[inline]
    pub(crate) fn disarm_span(&mut self) -> Option<QuerySpan> {
        self.spans.disarm()
    }

    /// Appends one phase to the active span (no-op while disarmed).
    /// Lets the session layer mark reuse-path decisions (rebuild, delta
    /// fallback) that have no dedicated [`TraceEvent`].
    #[inline]
    pub(crate) fn span_mark(&mut self, kind: PhaseKind, a: u64, b: u64) {
        self.spans.mark(kind, a, b);
    }

    /// Records which solver front-end took over the active span and
    /// whether it is a delta resume. Called at every
    /// `solve_in`/`resume_in` entry, so the span names the solver that
    /// actually ran (e.g. after a delta fallback).
    #[inline]
    pub(crate) fn note_solver(&mut self, name: &'static str, delta: bool) {
        self.spans.note_solver(name, delta);
    }

    /// True when a sink consumes events. Use to skip *computing*
    /// expensive event payloads; plain emits don't need the check.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.sink, Sink::None)
    }

    /// Installs a ring-buffer [`Recorder`] of `capacity` events,
    /// replacing any existing sink.
    pub fn install_recorder(&mut self, capacity: usize) {
        self.sink = Sink::Ring(Recorder::new(capacity));
    }

    /// Installs an arbitrary sink, replacing any existing one.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Sink::Custom(DynSink(sink));
    }

    /// Removes the sink (further emits become branches).
    pub fn disable(&mut self) {
        self.sink = Sink::None;
    }

    /// The installed ring recorder, if that is the current sink kind.
    pub fn recorder(&self) -> Option<&Recorder> {
        match &self.sink {
            Sink::Ring(r) => Some(r),
            _ => None,
        }
    }

    /// Mutable access to the installed ring recorder.
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        match &mut self.sink {
            Sink::Ring(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> TraceEvent {
        TraceEvent::Augment { bucket: i }
    }

    #[test]
    fn recorder_retains_in_order_and_counts_exactly() {
        let mut r = Recorder::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.record(ev(i));
        }
        r.record(TraceEvent::ProbeStart {
            budget: Micros::from_millis(1),
        });
        // Capacity 3: the last three survive, in order.
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.events(),
            vec![
                ev(3),
                ev(4),
                TraceEvent::ProbeStart {
                    budget: Micros::from_millis(1)
                }
            ]
        );
        // Exact totals survive the overwrites.
        assert_eq!(r.count(EventKind::Augment), 5);
        assert_eq!(r.count(EventKind::ProbeStart), 1);
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 3);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn recorder_under_capacity_keeps_everything() {
        let mut r = Recorder::new(8);
        for i in 0..4 {
            r.record(ev(i));
        }
        assert_eq!(r.events(), vec![ev(0), ev(1), ev(2), ev(3)]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn every_event_maps_to_its_kind() {
        let events = [
            TraceEvent::SolveStart { query_size: 1 },
            TraceEvent::ProbeStart {
                budget: Micros::ZERO,
            },
            TraceEvent::ProbeEnd {
                budget: Micros::ZERO,
                feasible: true,
            },
            TraceEvent::Augment { bucket: 0 },
            TraceEvent::RelabelPass {
                pushes: 0,
                relabels: 0,
            },
            TraceEvent::CapacityIncrement { edges: 0 },
            TraceEvent::RetryScheduled {
                attempt: 1,
                probe: Micros::ZERO,
            },
            TraceEvent::HealthTransition { fingerprint: 0 },
            TraceEvent::DegradedServe {
                served: 0,
                dropped: 0,
            },
            TraceEvent::DeltaPatch {
                changed: 0,
                cancelled: 0,
            },
            TraceEvent::CacheHit { fingerprint: 0 },
            TraceEvent::RefinePass {
                cycles: 0,
                moved: 0,
            },
            TraceEvent::BudgetExpired {
                achieved: Micros::ZERO,
                lower_bound: Micros::ZERO,
            },
            TraceEvent::PlaneCheckout { shared: true },
        ];
        for (e, k) in events.iter().zip(EventKind::ALL) {
            assert_eq!(e.kind(), k);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn tracer_routes_to_installed_sinks() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(ev(0)); // goes nowhere, must not panic
        t.install_recorder(4);
        assert!(t.enabled());
        t.emit(ev(1));
        assert_eq!(t.recorder().unwrap().len(), 1);
        t.recorder_mut().unwrap().clear();
        assert!(t.recorder().unwrap().is_empty());

        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        t.set_sink(Box::new(move |e: TraceEvent| {
            sink_seen.lock().unwrap().push(e);
        }));
        assert!(t.recorder().is_none());
        t.emit(ev(2));
        assert_eq!(seen.lock().unwrap().as_slice(), &[ev(2)]);
        t.disable();
        t.emit(ev(3));
        assert_eq!(seen.lock().unwrap().len(), 1);
    }
}
