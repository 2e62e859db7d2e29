//! Online serving loop: admission control, deadlines, backpressure.
//!
//! [`Engine::serve`] turns the batch engine into a long-running scheduler:
//! one worker per shard drains a bounded submission queue, coalescing
//! consecutive same-stream queries onto the warm-start/delta path, while
//! the caller submits [`QueryRequest`]s through a [`ServeHandle`] and
//! receives [`ServeResponse`]s asynchronously.
//!
//! ## Admission and backpressure
//!
//! Admission is synchronous and typed: [`ServeHandle::submit`] either
//! returns a [`Ticket`] — a promise that exactly one response will carry
//! it — or a [`Rejected`] explaining why the request was turned away
//! *before* it consumed queue space:
//!
//! * [`Rejected::QueueFull`] — the stream's shard queue is at
//!   [`ServeConfig::queue_capacity`].
//! * [`Rejected::DeadlineUnmeetable`] — the SLA deadline already passed at
//!   admission time.
//! * [`Rejected::ShedLowPriority`] — the queue crossed
//!   [`ServeConfig::shed_watermark`] and the request's
//!   [`PriorityClass`] is sheddable ([`PriorityClass::Batch`]).
//! * [`Rejected::ShuttingDown`] — the loop is draining.
//!
//! ## Deadlines and anytime solves
//!
//! A request may carry an absolute SLA deadline on the serve clock. On the
//! real clock the worker tightens the engine's armed
//! [`SolveBudget`] to the time remaining, so an
//! overrunning solve is finalized early at the best feasible bound (the
//! achieved-vs-optimal gap lands in
//! [`SolveStats::anytime_gap`](crate::schedule::SolveStats::anytime_gap))
//! instead of blocking past the deadline.
//!
//! ## Determinism
//!
//! With [`ServeClock::Virtual`] the loop never reads wall time: arrivals
//! come from the request, fault probes use the simulated clock, and
//! budgets act on probe counts only — so, as with
//! [`Engine::submit_batch`], results are identical for every shard count.
//! [`ServeClock::Real`] trades that for liveness: arrivals, deadline
//! enforcement and fault probes all use the wall clock, so mid-flight
//! health transitions trigger replanning.

use crate::engine::{
    BatchQuery, DrainCtx, DrainItem, Drained, Engine, EngineMetrics, EngineStats, Lane, Shard,
};
use crate::error::EngineError;
use crate::obs::metrics::{Histogram, LatencySummary, MetricsRegistry};
use crate::obs::recorder::{FlightRecorder, RecorderStats};
use crate::obs::slo::{SloReport, SloTrackerSet};
use crate::obs::span::{PhaseKind, RejectReason, SpanId, SpanOutcome};
use crate::schedule::SolveStats;
use crate::session::{SessionOutcome, SessionState};
use crate::solver::RetrievalSolver;
use crate::spec::SolveBudget;
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_storage::time::Micros;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduling class of a request: who gets shed first under overload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Latency-sensitive; never shed.
    Interactive,
    /// The default class; never shed.
    #[default]
    Standard,
    /// Throughput work; shed first when the queue crosses the watermark.
    Batch,
}

impl PriorityClass {
    /// Number of classes (array dimension for per-class stats).
    pub const COUNT: usize = 3;

    /// Every class, in shed order (last is shed first).
    pub const ALL: [PriorityClass; PriorityClass::COUNT] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Batch,
    ];

    /// Stable lowercase name (metric label).
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Batch => "batch",
        }
    }

    /// Whether overload shedding may reject this class.
    pub fn sheddable(self) -> bool {
        matches!(self, PriorityClass::Batch)
    }
}

/// One query submitted to the serving loop: the batch fields plus a
/// priority class and an optional SLA deadline.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Stream (independent session) identifier; pins the request to shard
    /// `stream % num_shards`.
    pub stream: usize,
    /// The requested buckets.
    pub buckets: Vec<Bucket>,
    /// Scheduling class (default [`PriorityClass::Standard`]).
    pub class: PriorityClass,
    /// Absolute deadline on the serve clock. Requests past it are
    /// rejected at admission; on the real clock the solve budget is
    /// tightened to the time remaining.
    pub deadline: Option<Micros>,
    /// Arrival time. Authoritative under [`ServeClock::Virtual`]
    /// (monotone non-decreasing per stream, as in
    /// [`Engine::submit_batch`]); overwritten with the admission wall
    /// time under [`ServeClock::Real`].
    pub arrival: Micros,
}

impl QueryRequest {
    /// A standard-class request with no deadline, arriving at time zero.
    pub fn new(stream: usize, buckets: Vec<Bucket>) -> QueryRequest {
        QueryRequest {
            stream,
            buckets,
            class: PriorityClass::default(),
            deadline: None,
            arrival: Micros::ZERO,
        }
    }

    /// Sets the priority class.
    pub fn class(mut self, class: PriorityClass) -> QueryRequest {
        self.class = class;
        self
    }

    /// Sets the absolute SLA deadline.
    pub fn deadline(mut self, deadline: Micros) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the (virtual-clock) arrival time.
    pub fn arriving_at(mut self, arrival: Micros) -> QueryRequest {
        self.arrival = arrival;
        self
    }
}

/// Typed admission rejection: why a request never entered the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The shard queue is at capacity.
    QueueFull {
        /// The full shard.
        shard: usize,
        /// Its depth at rejection.
        depth: usize,
    },
    /// The deadline already passed at admission time.
    DeadlineUnmeetable {
        /// The requested deadline.
        deadline: Micros,
        /// The serve clock when the request was admitted.
        now: Micros,
    },
    /// Overload shedding turned away a sheddable class.
    ShedLowPriority {
        /// The shed request's class.
        class: PriorityClass,
        /// Queue depth that tripped the watermark.
        depth: usize,
    },
    /// The loop is draining; no new work is admitted.
    ShuttingDown,
}

impl Rejected {
    /// The flat [`RejectReason`] of this rejection (metric label, span
    /// attribute) — the detail payload is dropped.
    pub fn reason(&self) -> RejectReason {
        match self {
            Rejected::QueueFull { .. } => RejectReason::QueueFull,
            Rejected::DeadlineUnmeetable { .. } => RejectReason::DeadlineUnmeetable,
            Rejected::ShedLowPriority { .. } => RejectReason::ShedLowPriority,
            Rejected::ShuttingDown => RejectReason::ShuttingDown,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { shard, depth } => {
                write!(f, "shard {shard} queue full at depth {depth}")
            }
            Rejected::DeadlineUnmeetable { deadline, now } => write!(
                f,
                "deadline {}us already passed at {}us",
                deadline.as_micros(),
                now.as_micros()
            ),
            Rejected::ShedLowPriority { class, depth } => {
                write!(f, "{} request shed at depth {depth}", class.name())
            }
            Rejected::ShuttingDown => write!(f, "serving loop is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an *admitted* request did not produce a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Solving failed (infeasible, solver rejection, contained panic).
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// Receipt for one admitted request; its response carries the same value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// One resolved request.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeResponse {
    /// The admission receipt this response settles.
    pub ticket: Ticket,
    /// The request's stream.
    pub stream: usize,
    /// The request's priority class.
    pub class: PriorityClass,
    /// The schedule (possibly degraded/partial) or a typed failure.
    pub result: Result<SessionOutcome, ServeError>,
    /// Time the request spent queued, on the serve clock (always zero
    /// under [`ServeClock::Virtual`]).
    pub queued: Micros,
    /// Whether the request finished past its deadline.
    pub deadline_missed: bool,
}

/// Which clock drives arrivals, deadlines and fault probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeClock {
    /// Wall clock (epoch = serve start). Mid-flight health transitions
    /// are observed; deadline budgets are enforced in wall time.
    #[default]
    Real,
    /// Simulated time from request arrivals. Fully deterministic: results
    /// are identical for every shard count, as in batch mode.
    Virtual,
}

/// Knobs of one serving run.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Maximum queued requests per shard before [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Queue depth at which sheddable classes get
    /// [`Rejected::ShedLowPriority`]; `None` disables shedding.
    pub shed_watermark: Option<usize>,
    /// How long a worker waits for more arrivals before draining a
    /// non-full queue, to coalesce same-stream requests onto the
    /// warm-start/delta path (and widen fused drains). `None` drains
    /// immediately. Under [`ServeClock::Virtual`] the duration itself is
    /// meaningless — any window instead coalesces deterministically
    /// until the batch reaches [`ServeConfig::batch_max`] or admission
    /// closes, so batch composition is reproducible for any shard count.
    /// Virtual callers must therefore not block on
    /// [`ServeHandle::recv`] before either submitting `batch_max`
    /// requests to a shard or returning from the serve closure.
    pub batch_window: Option<Duration>,
    /// Maximum requests drained per wakeup.
    pub batch_max: usize,
    /// The serve clock (default [`ServeClock::Real`]).
    pub clock: ServeClock,
    /// Whether served requests get query spans recorded into the shard
    /// flight recorders (default `true`). Turning this off removes the
    /// span channel from the hot path entirely — the baseline the
    /// `span_overhead` bench measures against. Solve results are
    /// bit-identical either way.
    pub record_spans: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 1024,
            shed_watermark: None,
            batch_window: None,
            batch_max: 64,
            clock: ServeClock::default(),
            record_spans: true,
        }
    }
}

impl ServeConfig {
    /// Sets the per-shard queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Enables overload shedding above `depth` queued requests.
    pub fn shed_watermark(mut self, depth: usize) -> ServeConfig {
        self.shed_watermark = Some(depth);
        self
    }

    /// Sets the coalescing window (see [`ServeConfig::batch_window`] for
    /// the deterministic virtual-clock semantics).
    pub fn batch_window(mut self, window: Duration) -> ServeConfig {
        self.batch_window = Some(window);
        self
    }

    /// Sets the per-wakeup drain limit.
    pub fn batch_max(mut self, max: usize) -> ServeConfig {
        self.batch_max = max.max(1);
        self
    }

    /// Selects the serve clock.
    pub fn clock(mut self, clock: ServeClock) -> ServeConfig {
        self.clock = clock;
        self
    }

    /// Enables or disables query-span recording (default on).
    pub fn record_spans(mut self, on: bool) -> ServeConfig {
        self.record_spans = on;
        self
    }

    /// Shorthand for the deterministic simulated clock.
    pub fn virtual_time(self) -> ServeConfig {
        self.clock(ServeClock::Virtual)
    }
}

/// The serve clock: a wall epoch plus the high-water arrival mark that
/// stands in for "now" under virtual time. It is also the drain's fault
/// probe clock.
pub(crate) struct ClockState {
    mode: ServeClock,
    epoch: Instant,
    virtual_now: AtomicU64,
}

impl ClockState {
    fn new(mode: ServeClock) -> ClockState {
        ClockState {
            mode,
            epoch: Instant::now(),
            virtual_now: AtomicU64::new(0),
        }
    }

    fn now(&self) -> Micros {
        match self.mode {
            ServeClock::Real => Micros::from_micros(self.epoch.elapsed().as_micros() as u64),
            ServeClock::Virtual => Micros::from_micros(self.virtual_now.load(Ordering::Relaxed)),
        }
    }

    fn observe_arrival(&self, arrival: Micros) {
        self.virtual_now
            .fetch_max(arrival.as_micros(), Ordering::Relaxed);
    }

    /// When a query that arrived at `arrival` probes the fault schedule:
    /// at its arrival under virtual time, at the current wall time (if
    /// later) on the real clock.
    pub(crate) fn probe_time(&self, arrival: Micros) -> Micros {
        match self.mode {
            ServeClock::Real => self.now().max(arrival),
            ServeClock::Virtual => arrival,
        }
    }

    /// Sleeps until `t`, capped at `deadline` so replanning never blocks
    /// past it. Only the real clock waits; simulated backoff needs none.
    pub(crate) fn wait_until(&self, t: Micros, deadline: Option<Micros>) {
        let cap = deadline.map_or(t, |d| t.min(d));
        let now = self.now();
        if self.mode == ServeClock::Real && cap > now {
            std::thread::sleep(Duration::from_micros((cap - now).as_micros()));
        }
    }
}

/// One admitted request waiting in a shard queue.
struct Admitted {
    ticket: Ticket,
    req: QueryRequest,
    enqueued: Instant,
}

struct QueueState {
    items: VecDeque<Admitted>,
    open: bool,
    /// High-water arrival mark (real clock): keeps per-shard admission
    /// arrivals monotone even if the wall clock reads race.
    last_arrival: Micros,
}

struct ShardQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl ShardQueue {
    fn new() -> ShardQueue {
        ShardQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
                last_arrival: Micros::ZERO,
            }),
            cv: Condvar::new(),
        }
    }
}

#[derive(Default)]
struct AdmissionCounters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    max_queue_depth: AtomicU64,
    /// Rejections by `[reason][class]`, indexed like [`RejectReason::ALL`]
    /// × [`PriorityClass::ALL`] — the one rejection count.
    rejected_by: [[AtomicU64; PriorityClass::COUNT]; RejectReason::COUNT],
}

/// State shared between the handle (producer side) and the workers.
struct Shared {
    queues: Vec<ShardQueue>,
    clock: ClockState,
    capacity: usize,
    shed_watermark: Option<usize>,
    record_spans: bool,
    counters: AdmissionCounters,
    tickets: AtomicU64,
    slo: crate::obs::slo::SloPolicy,
    /// Spans of rejected submissions plus their availability-SLO tracker.
    /// Rejections never reach a shard, so they get their own recorder;
    /// admission is already serialized per shard, and a rejection is off
    /// the hot serving path, so one extra mutex is fine here.
    rejlog: Mutex<(FlightRecorder, SloTrackerSet)>,
}

impl Shared {
    /// Accounts one admission rejection: the per-(reason, class) counter,
    /// a rejection span in the flight recorder, and an availability-SLO
    /// event.
    fn note_rejection(
        &self,
        reason: RejectReason,
        class: PriorityClass,
        stream: usize,
        arrival: Micros,
    ) {
        self.counters.rejected_by[reason as usize][class as usize].fetch_add(1, Ordering::Relaxed);
        let mut log = self.rejlog.lock().expect("rejection log mutex");
        let (recorder, slo) = &mut *log;
        // A rejection never gets a ticket, so its span keeps id 0.
        let mut span = recorder.checkout();
        span.id = SpanId(0);
        span.stream = stream;
        span.shard = stream % self.queues.len();
        span.class = class as usize;
        span.arrival = arrival;
        span.completion = arrival;
        span.outcome = SpanOutcome::Rejected(reason);
        span.record(PhaseKind::Admitted, 0, arrival.as_micros(), class as u64);
        span.record(PhaseKind::Rejected, 0, reason as u64, 0);
        recorder.retire(span);
        slo.record_unavailable(class, arrival.max(self.clock.now()));
    }
}

/// The producer side of a serving run: submit requests, receive
/// responses, read the clock. Shareable across caller threads (`&self`
/// everywhere).
pub struct ServeHandle {
    shared: Arc<Shared>,
    responses: Mutex<mpsc::Receiver<ServeResponse>>,
}

impl ServeHandle {
    /// Synchronous admission: a [`Ticket`] promising exactly one
    /// [`ServeResponse`], or a typed [`Rejected`].
    pub fn submit(&self, mut req: QueryRequest) -> Result<Ticket, Rejected> {
        let s = &*self.shared;
        s.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = req.stream % s.queues.len();
        let q = &s.queues[shard];
        let mut st = q.state.lock().expect("queue mutex");
        if !st.open {
            let arrival = match s.clock.mode {
                ServeClock::Virtual => req.arrival,
                ServeClock::Real => s.clock.now(),
            };
            s.note_rejection(RejectReason::ShuttingDown, req.class, req.stream, arrival);
            return Err(Rejected::ShuttingDown);
        }
        let arrival = match s.clock.mode {
            ServeClock::Virtual => req.arrival,
            ServeClock::Real => s.clock.now().max(st.last_arrival),
        };
        if let Some(deadline) = req.deadline {
            if deadline < arrival {
                s.note_rejection(
                    RejectReason::DeadlineUnmeetable,
                    req.class,
                    req.stream,
                    arrival,
                );
                return Err(Rejected::DeadlineUnmeetable {
                    deadline,
                    now: arrival,
                });
            }
        }
        let depth = st.items.len();
        if depth >= s.capacity {
            s.note_rejection(RejectReason::QueueFull, req.class, req.stream, arrival);
            return Err(Rejected::QueueFull { shard, depth });
        }
        if req.class.sheddable() && s.shed_watermark.is_some_and(|w| depth >= w) {
            s.note_rejection(
                RejectReason::ShedLowPriority,
                req.class,
                req.stream,
                arrival,
            );
            return Err(Rejected::ShedLowPriority {
                class: req.class,
                depth,
            });
        }
        req.arrival = arrival;
        if s.clock.mode == ServeClock::Virtual {
            s.clock.observe_arrival(arrival);
        } else {
            st.last_arrival = arrival;
        }
        let ticket = Ticket(s.tickets.fetch_add(1, Ordering::Relaxed) + 1);
        st.items.push_back(Admitted {
            ticket,
            req,
            enqueued: Instant::now(),
        });
        s.counters
            .max_queue_depth
            .fetch_max(st.items.len() as u64, Ordering::Relaxed);
        s.counters.admitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        q.cv.notify_one();
        Ok(ticket)
    }

    /// Blocks for the next response. `None` once the loop has shut down
    /// and every admitted request's response was claimed.
    pub fn recv(&self) -> Option<ServeResponse> {
        self.responses.lock().expect("receiver mutex").recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<ServeResponse> {
        self.responses
            .lock()
            .expect("receiver mutex")
            .try_recv()
            .ok()
    }

    /// The current serve-clock reading (virtual: latest arrival seen).
    pub fn now(&self) -> Micros {
        self.shared.clock.now()
    }

    /// Current depth of `shard`'s queue, or `None` for a shard the
    /// engine does not have.
    pub fn queue_depth(&self, shard: usize) -> Option<usize> {
        let queue = self.shared.queues.get(shard)?;
        Some(queue.state.lock().expect("queue mutex").items.len())
    }

    /// Closes admission on every queue; workers drain what was already
    /// admitted and exit. Called automatically when the serve closure
    /// returns; calling it early (e.g. from a producer thread) is safe
    /// and idempotent.
    pub fn shutdown(&self) {
        for q in &self.shared.queues {
            q.state.lock().expect("queue mutex").open = false;
            q.cv.notify_all();
        }
    }
}

/// Per-class latency and completion accounting.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ClassServeStats {
    /// Requests of this class that resolved (schedule or typed error).
    pub completed: u64,
    /// Responses of this class that finished past their deadline.
    pub deadline_misses: u64,
    /// Queue-wait time per request, µs (all zero under virtual time).
    pub queue_wait_us: Histogram,
    /// Admission→resolution time per request, µs.
    pub turnaround_us: Histogram,
}

impl ClassServeStats {
    fn merge(&mut self, other: &ClassServeStats) {
        self.completed += other.completed;
        self.deadline_misses += other.deadline_misses;
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.turnaround_us.merge(&other.turnaround_us);
    }
}

/// Everything one serving run measured.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ServeStats {
    /// Submission attempts (admitted + rejected).
    pub submitted: u64,
    /// Requests that entered a queue (each resolves exactly once).
    pub admitted: u64,
    /// Responses produced.
    pub completed: u64,
    /// Responses that resolved with an error.
    pub errors: u64,
    /// Solver panics (the engine's
    /// [`EngineStats::shard_failures`](crate::engine::EngineStats::shard_failures)),
    /// including tickets lost with a worker that died outside per-query
    /// containment.
    pub panics: u64,
    /// Responses that finished past their deadline.
    pub deadline_misses: u64,
    /// Highest queue depth observed across shards.
    pub max_queue_depth: u64,
    /// Wall time of the whole serving run.
    pub elapsed: Duration,
    /// Per-class accounting, indexed like [`PriorityClass::ALL`].
    pub classes: [ClassServeStats; PriorityClass::COUNT],
    /// Solver work summed over every served request.
    pub solve_stats: SolveStats,
    /// Rejections by `[reason][class]`, indexed like [`RejectReason::ALL`]
    /// × [`PriorityClass::ALL`]; see [`ServeStats::rejected_for`].
    pub rejected_by: [[u64; PriorityClass::COUNT]; RejectReason::COUNT],
    /// Error-budget burn report for the run's
    /// [`SloPolicy`](crate::obs::slo::SloPolicy) (responses and
    /// rejections both count).
    pub slo: SloReport,
    /// Flight-recorder retention accounting merged over every shard plus
    /// the rejection recorder.
    pub recorder: RecorderStats,
}

impl ServeStats {
    /// Rejections for `reason`, summed over every class.
    pub fn rejected_for(&self, reason: RejectReason) -> u64 {
        self.rejected_by[reason as usize].iter().sum()
    }

    /// Total rejections of any kind.
    pub fn rejected(&self) -> u64 {
        self.rejected_by.iter().flatten().sum()
    }

    /// Fraction of submissions turned away by load shedding or a full
    /// queue (0.0 when nothing was submitted).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        let shed = self.rejected_for(RejectReason::QueueFull)
            + self.rejected_for(RejectReason::ShedLowPriority);
        shed as f64 / self.submitted as f64
    }

    /// Responses per second of run wall time.
    pub fn completed_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Turnaround quantile summary of one class.
    pub fn class_latency(&self, class: PriorityClass) -> LatencySummary {
        self.classes[class as usize].turnaround_us.summary()
    }

    /// Exports the run as `rds_serve_*` metrics: admission counters, the
    /// queue-depth high-water gauge, and per-class latency histograms.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("rds_serve_submitted_total", self.submitted);
        reg.inc_counter("rds_serve_admitted_total", self.admitted);
        reg.inc_counter("rds_serve_completed_total", self.completed);
        reg.inc_counter("rds_serve_errors_total", self.errors);
        reg.inc_counter("rds_serve_panics_total", self.panics);
        reg.inc_counter("rds_serve_deadline_misses_total", self.deadline_misses);
        reg.inc_counter(
            "rds_serve_budget_expirations_total",
            self.solve_stats.budget_expirations,
        );
        reg.set_gauge("rds_serve_max_queue_depth", self.max_queue_depth as i64);
        reg.set_help(
            "rds_serve_rejected_total",
            "Admission rejections by reason and priority class",
        );
        for (r, reason) in RejectReason::ALL.iter().enumerate() {
            for (ci, class) in PriorityClass::ALL.iter().enumerate() {
                let n = self.rejected_by[r][ci];
                if n > 0 {
                    reg.inc_counter_labeled(
                        "rds_serve_rejected_total",
                        &[("class", class.name()), ("reason", reason.name())],
                        n,
                    );
                }
            }
        }
        reg.set_help(
            "rds_slo_latency_burn_milli",
            "Latency error-budget burn rate x1000 (1000 = burning exactly the budget)",
        );
        reg.set_help(
            "rds_slo_availability_burn_milli",
            "Availability error-budget burn rate x1000",
        );
        for (ci, class) in PriorityClass::ALL.iter().enumerate() {
            let c = &self.slo.classes[ci];
            if !c.enabled {
                continue;
            }
            let l = [("class", class.name())];
            reg.inc_counter_labeled("rds_slo_latency_events_total", &l, c.latency_events);
            reg.inc_counter_labeled("rds_slo_latency_violations_total", &l, c.latency_violations);
            reg.inc_counter_labeled(
                "rds_slo_availability_events_total",
                &l,
                c.availability_events,
            );
            reg.inc_counter_labeled(
                "rds_slo_availability_violations_total",
                &l,
                c.availability_violations,
            );
            for (window, lat, avail) in [
                (
                    "fast",
                    c.latency_burn_fast_milli,
                    c.availability_burn_fast_milli,
                ),
                (
                    "slow",
                    c.latency_burn_slow_milli,
                    c.availability_burn_slow_milli,
                ),
            ] {
                let lw = [("class", class.name()), ("window", window)];
                reg.set_gauge_labeled("rds_slo_latency_burn_milli", &lw, lat as i64);
                reg.set_gauge_labeled("rds_slo_availability_burn_milli", &lw, avail as i64);
            }
        }
        reg.inc_counter("rds_flight_retained_total", self.recorder.retained);
        reg.inc_counter("rds_flight_evicted_total", self.recorder.evicted);
        reg.inc_counter("rds_flight_recycled_total", self.recorder.recycled);
        reg.inc_counter(
            "rds_flight_dropped_phases_total",
            self.recorder.dropped_phases,
        );
        reg.inc_counter(
            "rds_flight_allocation_events_total",
            self.recorder.allocation_events,
        );
        for class in PriorityClass::ALL {
            let c = &self.classes[class as usize];
            reg.inc_counter(
                &format!("rds_serve_{}_completed_total", class.name()),
                c.completed,
            );
            reg.inc_counter(
                &format!("rds_serve_{}_deadline_misses_total", class.name()),
                c.deadline_misses,
            );
            *reg.histogram_mut(&format!("rds_serve_{}_queue_wait_us", class.name())) =
                c.queue_wait_us.clone();
            *reg.histogram_mut(&format!("rds_serve_{}_turnaround_us", class.name())) =
                c.turnaround_us.clone();
        }
        reg
    }
}

/// What [`Engine::serve`] returns: the closure's output, the run's
/// stats, and any responses the closure never claimed.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeReport<R> {
    /// The serve closure's return value.
    pub output: R,
    /// Everything the run measured.
    pub stats: ServeStats,
    /// Responses produced but not claimed via [`ServeHandle::recv`],
    /// in completion order. Together with the claimed ones, every
    /// admitted ticket appears exactly once.
    pub unclaimed: Vec<ServeResponse>,
}

/// Every engine and serve fact one worker counted in its finish stage;
/// the workers' tallies merge once per run into both [`ServeStats`] and
/// the engine's stats.
#[derive(Default)]
struct WorkerTally {
    classes: [ClassServeStats; PriorityClass::COUNT],
    deadline_misses: u64,
    /// The engine's counters over this worker's responses: `queries`
    /// counts responses, `shard_failures` contained panics.
    engine: EngineStats,
    metrics: EngineMetrics,
    /// Per-class SLO burn tracker.
    slo: SloTrackerSet,
}

impl WorkerTally {
    fn merge(&mut self, other: &WorkerTally) {
        for (into, from) in self.classes.iter_mut().zip(&other.classes) {
            into.merge(from);
        }
        self.deadline_misses += other.deadline_misses;
        self.engine.merge(&other.engine);
        self.metrics.merge(&other.metrics);
        self.slo.merge(&other.slo);
    }
}

impl<'a, A: ReplicaSource + Sync, S: RetrievalSolver + Sync> Engine<'a, A, S> {
    /// Runs the online serving loop: one worker per shard drains a
    /// bounded queue while `f` runs on the calling thread with a
    /// [`ServeHandle`] to submit requests and claim responses. When `f`
    /// returns, admission closes, the workers drain everything already
    /// admitted, and the run's [`ServeStats`] (plus any unclaimed
    /// responses) are returned — every admitted ticket resolves exactly
    /// once, even across solver panics.
    ///
    /// ```
    /// use rds_core::engine::Engine;
    /// use rds_core::serve::{QueryRequest, ServeConfig};
    /// use rds_decluster::orthogonal::OrthogonalAllocation;
    /// use rds_decluster::query::{Query, RangeQuery};
    /// use rds_storage::experiments::paper_example;
    ///
    /// let system = paper_example();
    /// let alloc = OrthogonalAllocation::paper_7x7();
    /// let mut engine = Engine::builder(&system, &alloc).shards(2).build();
    /// let report = engine.serve(ServeConfig::default(), |handle| {
    ///     let buckets = RangeQuery::new(0, 0, 2, 3).buckets(7);
    ///     handle.submit(QueryRequest::new(0, buckets)).unwrap()
    /// });
    /// assert_eq!(report.stats.admitted, 1);
    /// assert_eq!(report.stats.completed, 1);
    /// let response = &report.unclaimed[0];
    /// assert_eq!(response.ticket, report.output);
    /// assert!(response.result.is_ok());
    /// ```
    pub fn serve<R>(
        &mut self,
        config: ServeConfig,
        f: impl FnOnce(&ServeHandle) -> R,
    ) -> ServeReport<R> {
        self.run_serving(config, None, f)
    }

    /// [`Engine::serve`], or with `batch` a closed run: the batch is
    /// admitted (tickets `1..=len`, in order) and admission closed before
    /// any worker starts. A single shard then drains on the calling
    /// thread, as a thread of its own would buy nothing.
    pub(crate) fn run_serving<R>(
        &mut self,
        config: ServeConfig,
        batch: Option<&[BatchQuery]>,
        f: impl FnOnce(&ServeHandle) -> R,
    ) -> ServeReport<R> {
        let started = Instant::now();
        let num_shards = self.shards.len();
        let shared = Arc::new(Shared {
            queues: (0..num_shards).map(|_| ShardQueue::new()).collect(),
            clock: ClockState::new(config.clock),
            capacity: config.queue_capacity,
            shed_watermark: config.shed_watermark,
            record_spans: config.record_spans,
            counters: AdmissionCounters::default(),
            tickets: AtomicU64::new(0),
            slo: self.spec.slo,
            // The engine's rejection recorder moves into the run (so its
            // configuration and already-retained spans carry over) and is
            // restored in the epilogue below.
            rejlog: Mutex::new((
                std::mem::take(&mut self.rejections),
                SloTrackerSet::new(self.spec.slo),
            )),
        });
        let (tx, rx) = mpsc::channel();
        let handle = ServeHandle {
            shared: Arc::clone(&shared),
            responses: Mutex::new(rx),
        };
        if let Some(queries) = batch {
            for q in queries {
                let req = QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival);
                handle
                    .submit(req)
                    .expect("batch queries are admitted without limits");
            }
            handle.shutdown();
        }
        let ctx = DrainCtx {
            system: self.system,
            alloc: self.alloc,
            solver: &self.solver,
            injector: self.injector.as_ref(),
            retry: self.retry,
            degraded: self.degraded,
            spec: &self.spec,
            clock: &shared.clock,
            pool: self.pool.as_ref().filter(|_| self.spec.batch_fuse),
        };
        let base_budget = self.spec.budget;

        let (output, tallies) = std::thread::scope(|scope| {
            let ctx = &ctx;
            let config = &config;
            let shared_ref = &*shared;
            let mut workers = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(shard_idx, shard)| {
                    let worker = Worker {
                        shard_idx,
                        shared: shared_ref,
                        base_budget,
                        tx: tx.clone(),
                        tally: WorkerTally {
                            slo: SloTrackerSet::new(shared_ref.slo),
                            ..WorkerTally::default()
                        },
                    };
                    (shard, worker)
                });
            let first = batch
                .filter(|_| num_shards == 1)
                .and_then(|_| workers.next());
            let spawned: Vec<_> = workers
                .map(|(shard, w)| scope.spawn(move || serve_worker(shard, ctx, config, w)))
                .collect();
            drop(tx);
            let output = f(&handle);
            handle.shutdown();
            let first = first.map(|(shard, w)| serve_worker(shard, ctx, config, w));
            // Per-query panics are contained inside the drain; a join
            // failure means one escaped (e.g. in the worker's own
            // bookkeeping). The other shards' results are still good.
            let tallies: Vec<_> = first
                .into_iter()
                .map(Some)
                .chain(spawned.into_iter().map(|w| w.join().ok()))
                .collect();
            (output, tallies)
        });

        // Every sender is gone, so this drains exactly the responses the
        // closure never claimed.
        let unclaimed: Vec<ServeResponse> = handle
            .responses
            .lock()
            .expect("receiver mutex")
            .try_iter()
            .collect();

        let mut total = WorkerTally {
            slo: SloTrackerSet::new(self.spec.slo),
            ..WorkerTally::default()
        };
        for (shard, tally) in self.shards.iter_mut().zip(tallies) {
            match tally {
                Some(tally) => total.merge(&tally),
                None => {
                    // A dead worker's shard restarts with fresh stream
                    // states and a reclaimed workspace.
                    shard.states.clear();
                    let _ = shard.inline.workspace.take_poisoned();
                }
            }
        }
        let c = &shared.counters;
        let admitted = c.admitted.load(Ordering::Relaxed);
        let completed = total.engine.queries;
        let e = &mut total.engine;
        // A worker that died outside per-query containment never resolved
        // its tickets: each counts once, as a query lost to a panic.
        let lost = admitted - completed;
        e.queries += lost;
        e.errors += lost;
        e.shard_failures += lost;
        e.batches = 1;
        e.elapsed = started.elapsed();
        // Reclaim the rejection log: the recorder returns to the engine
        // (for `Engine::postmortem`), the rejection SLO tracker merges
        // into the run's report.
        let (rej_recorder, rej_slo) =
            std::mem::take(&mut *shared.rejlog.lock().expect("rejection log mutex"));
        total.slo.merge(&rej_slo);
        self.rejections = rej_recorder;
        let mut recorder = RecorderStats::default();
        for shard in &self.shards {
            recorder.merge(&shard.recorder.stats());
        }
        recorder.merge(&self.rejections.stats());
        let stats = ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted,
            completed,
            errors: total.engine.errors,
            panics: total.engine.shard_failures,
            deadline_misses: total.deadline_misses,
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            elapsed: total.engine.elapsed,
            classes: total.classes,
            solve_stats: total.engine.solve_stats,
            rejected_by: c
                .rejected_by
                .each_ref()
                .map(|row| row.each_ref().map(|n| n.load(Ordering::Relaxed))),
            slo: total.slo.report(),
            recorder,
        };
        self.stats.merge(&total.engine);
        self.stats.workspace_solves = self
            .shards
            .iter()
            .flat_map(|s| std::iter::once(&s.inline).chain(&s.lanes))
            .map(|l| l.workspace.solves())
            .sum();
        self.metrics.merge(&total.metrics);

        ServeReport {
            output,
            stats,
            unclaimed,
        }
    }
}

/// One shard's serving loop: wait for work, take a coalesced batch FIFO
/// (same-stream runs hit the warm/delta path), and drain it, resolving
/// every item exactly once.
fn serve_worker<A: ReplicaSource + ?Sized + Sync, S: RetrievalSolver + ?Sized + Sync>(
    shard: &mut Shard,
    ctx: &DrainCtx<'_, A, S>,
    config: &ServeConfig,
    mut w: Worker<'_>,
) -> WorkerTally {
    let queue = &w.shared.queues[w.shard_idx];
    let mut batch: Vec<Admitted> = Vec::new();
    loop {
        {
            let mut st = queue.state.lock().expect("queue mutex");
            while st.items.is_empty() {
                if !st.open {
                    return w.tally;
                }
                st = queue.cv.wait(st).expect("queue mutex");
            }
            // Coalescing window: give closely-spaced arrivals one chance
            // to land in the same drain, so consecutive same-stream
            // queries ride the warm-start/delta path (and fused drains
            // see wider batches).
            match (config.batch_window, w.shared.clock.mode) {
                (Some(window), ServeClock::Real) => {
                    if st.items.len() < config.batch_max && st.open {
                        let (back, _) = queue.cv.wait_timeout(st, window).expect("queue mutex");
                        st = back;
                    }
                }
                (Some(_), ServeClock::Virtual) => {
                    // Virtual time has no "window elapsed" signal, so the
                    // window coalesces up to the only two deterministic
                    // boundaries: the batch filling to `batch_max`, or
                    // admission closing. This makes batch composition —
                    // and therefore fused-drain digests — reproducible
                    // for any shard count.
                    while st.items.len() < config.batch_max && st.open {
                        st = queue.cv.wait(st).expect("queue mutex");
                    }
                }
                (None, _) => {}
            }
            let take = st.items.len().min(config.batch_max);
            batch.extend(st.items.drain(..take));
        }
        w.drain(shard, ctx, &mut batch);
    }
}

/// One serve worker's fixed context and running tallies.
struct Worker<'s> {
    shard_idx: usize,
    shared: &'s Shared,
    base_budget: SolveBudget,
    tx: mpsc::Sender<ServeResponse>,
    tally: WorkerTally,
}

/// What the finish stage needs of an admitted request once it is solved.
struct Reply {
    ticket: Ticket,
    stream: usize,
    class: PriorityClass,
    deadline: Option<Micros>,
    arrival: Micros,
    enqueued: Instant,
    queued: Micros,
}

/// What one pool lane of a fused drain owns while it runs.
#[derive(Default)]
struct LaneWork {
    states: HashMap<usize, SessionState>,
    items: Vec<(usize, DrainItem<Reply>)>,
    out: Vec<(usize, Drained<Reply>)>,
}

impl Worker<'_> {
    /// The one drain: admitted items → per-stream groups → lanes →
    /// ordered finish.
    ///
    /// Items are grouped by stream, keeping drain order within a group
    /// (same-stream queries are load-coupled through the session clock,
    /// so only distinct streams are independent). With the engine's pool
    /// and two or more groups, each group runs serially on its own pool
    /// lane and the groups run concurrently as one
    /// [`WorkerPool::run_tasks`](rds_flow::parallel::WorkerPool::run_tasks)
    /// batch; stream states merge back in group order, then every item
    /// finishes in drain order. Otherwise the batch is a single lane run
    /// inline, each item prepared, solved and finished in turn. Results
    /// are the same either way.
    fn drain<A, S>(
        &mut self,
        shard: &mut Shard,
        ctx: &DrainCtx<'_, A, S>,
        batch: &mut Vec<Admitted>,
    ) where
        A: ReplicaSource + Sync + ?Sized,
        S: RetrievalSolver + Sync + ?Sized,
    {
        let Shard {
            inline,
            lanes,
            states,
            recorder,
        } = shard;
        let len = batch.len();
        let mut group_of: HashMap<usize, usize> = HashMap::new();
        let groups: Vec<usize> = batch
            .iter()
            .map(|item| {
                let next = group_of.len();
                *group_of.entry(item.req.stream).or_insert(next)
            })
            .collect();
        let (pool, n) = match ctx.pool {
            Some(pool) if group_of.len() >= 2 => (pool, group_of.len()),
            _ => {
                for item in batch.drain(..) {
                    let item = self.prepare(recorder, len, item);
                    let done = inline.solve(self.shard_idx, ctx, states, item);
                    self.finish(recorder, done);
                }
                return;
            }
        };

        self.tally.engine.fused_batches += 1;
        self.tally.engine.fused_queries += len as u64;
        while lanes.len() < n {
            let mut lane = Lane::default();
            lane.workspace.set_arena_layout(ctx.spec.arena_layout);
            lane.workspace.set_plane_sharing(true);
            lanes.push(lane);
        }
        let mut work: Vec<LaneWork> = (0..n).map(|_| LaneWork::default()).collect();
        for (pos, (item, g)) in batch.drain(..).zip(groups).enumerate() {
            let stream = item.req.stream;
            if let Some(state) = states.remove(&stream) {
                work[g].states.insert(stream, state);
            }
            work[g].items.push((pos, self.prepare(recorder, len, item)));
        }
        let shard_idx = self.shard_idx;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = lanes
            .iter_mut()
            .zip(&mut work)
            .map(|(lane, w)| {
                Box::new(move || {
                    for (pos, item) in w.items.drain(..) {
                        let done = lane.solve(shard_idx, ctx, &mut w.states, item);
                        w.out.push((pos, done));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_tasks(tasks);

        let mut drained: Vec<Option<Drained<Reply>>> = (0..len).map(|_| None).collect();
        for w in work {
            states.extend(w.states);
            for (pos, done) in w.out {
                drained[pos] = Some(done);
            }
        }
        for done in drained {
            self.finish(recorder, done.expect("every item ran on exactly one lane"));
        }
    }

    /// Turns one admitted request into a drain item: its queue wait, a
    /// span shell from the shard's flight recorder (when spans are on;
    /// armed on the lane tracer, the solve's bridged trace events land on
    /// its phase timeline) and the deadline-aware anytime budget.
    fn prepare(
        &self,
        recorder: &mut FlightRecorder,
        batch_len: usize,
        item: Admitted,
    ) -> DrainItem<Reply> {
        let Admitted {
            ticket,
            req,
            enqueued,
        } = item;
        let shared = self.shared;
        let real = shared.clock.mode == ServeClock::Real;
        let queued = if real {
            Micros::from_micros(enqueued.elapsed().as_micros() as u64)
        } else {
            Micros::ZERO
        };
        let span = shared.record_spans.then(|| {
            let mut span = recorder.checkout();
            span.id = SpanId(ticket.0);
            span.stream = req.stream;
            span.shard = self.shard_idx;
            span.class = req.class as usize;
            span.arrival = req.arrival;
            span.queued_us = queued.as_micros();
            let class = req.class as u64;
            span.record(PhaseKind::Admitted, 0, req.arrival.as_micros(), class);
            span.record(
                PhaseKind::Coalesced,
                0,
                batch_len as u64,
                queued.as_micros(),
            );
            span
        });
        // On the real clock, the solve may use at most the time remaining
        // until the SLA deadline (on top of any engine-wide budget).
        // Virtual time keeps the engine budget untouched so results stay
        // deterministic.
        let mut budget = self.base_budget;
        if let (true, Some(d)) = (real, req.deadline) {
            let remaining = Duration::from_micros(d.saturating_sub(shared.clock.now()).as_micros());
            budget.wall_clock = Some(budget.wall_clock.map_or(remaining, |b| b.min(remaining)));
        }
        DrainItem {
            tag: Reply {
                ticket,
                stream: req.stream,
                class: req.class,
                deadline: req.deadline,
                arrival: req.arrival,
                enqueued,
                queued,
            },
            query: BatchQuery {
                stream: req.stream,
                arrival: req.arrival,
                buckets: req.buckets,
            },
            deadline: req.deadline,
            budget,
            span,
        }
    }

    /// The finish stage of one solved request: deadline and turnaround
    /// accounting, span retirement (the flight recorder decides
    /// retention), the one count of every engine and serve fact, and the
    /// exactly-once response.
    fn finish(&mut self, recorder: &mut FlightRecorder, done: Drained<Reply>) {
        let Drained {
            result,
            solve_us,
            facts,
            span,
            tag: r,
        } = done;
        let (shared, tally) = (self.shared, &mut self.tally);
        let real = shared.clock.mode == ServeClock::Real;
        let deadline_missed = match (&result, r.deadline) {
            (Ok(_), Some(d)) if real => shared.clock.now() > d,
            (Ok(out), Some(d)) => out.completion > d,
            _ => false,
        };
        let turnaround = match &result {
            _ if real => Micros::from_micros(r.enqueued.elapsed().as_micros() as u64),
            Ok(out) => out.completion.saturating_sub(out.arrival),
            Err(_) => Micros::ZERO,
        };
        let completion = match &result {
            Ok(out) => out.completion,
            Err(_) if real => shared.clock.now(),
            Err(_) => r.arrival,
        };
        if shared.record_spans {
            let mut span = span.unwrap_or_default();
            span.turnaround_us = turnaround.as_micros();
            span.deadline_missed = deadline_missed;
            span.completion = completion;
            match &result {
                Ok(_) => {
                    span.outcome = SpanOutcome::Resolved;
                    span.record(PhaseKind::Reply, solve_us, deadline_missed as u64, 0);
                }
                Err(_) => {
                    span.outcome = SpanOutcome::Failed;
                    span.record(PhaseKind::Failed, solve_us, 0, 0);
                }
            }
            recorder.retire(span);
        }
        let slo_now = if real { shared.clock.now() } else { completion };
        match &result {
            Ok(_) => tally.slo.record_response(r.class, slo_now, turnaround),
            Err(_) => tally.slo.record_unavailable(r.class, slo_now),
        }
        let cs = &mut tally.classes[r.class as usize];
        cs.completed += 1;
        cs.queue_wait_us.record(r.queued.as_micros());
        cs.turnaround_us.record(turnaround.as_micros());
        if deadline_missed {
            cs.deadline_misses += 1;
            tally.deadline_misses += 1;
        }
        let (engine, metrics) = (&mut tally.engine, &mut tally.metrics);
        metrics.solve_latency_us.record(solve_us);
        engine.queries += 1;
        engine.retries += facts.retries;
        engine.reuse.merge(&facts.reuse);
        match &result {
            Ok(out) => {
                engine.solve_stats.accumulate(&out.outcome.stats);
                metrics.probes_per_solve.record(out.outcome.stats.probes);
                metrics
                    .turnaround_us
                    .record((out.completion - out.arrival).as_micros());
                if facts.degraded {
                    engine.degraded_solves += 1;
                    engine.dropped_buckets += out.unservable.len() as u64;
                }
            }
            Err(e) => {
                engine.errors += 1;
                engine.shard_failures += u64::from(matches!(e, EngineError::ShardFailed { .. }));
            }
        }
        // The receiver lives in the ServeHandle, which outlives the
        // scope, so a send failure is unreachable; ignoring it keeps the
        // drain unstoppable.
        let _ = self.tx.send(ServeResponse {
            ticket: r.ticket,
            stream: r.stream,
            class: r.class,
            result: result.map_err(ServeError::from),
            queued: r.queued,
            deadline_missed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RetryPolicy;
    use crate::fault::{DiskHealth, FaultInjector};
    use crate::session::ReusePolicy;
    use crate::spec::{ArenaLayout, SolverKind, SolverSpec};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;
    use std::collections::HashSet;

    fn setup() -> (SystemConfig, OrthogonalAllocation) {
        (
            SystemConfig::homogeneous(CHEETAH, 5),
            OrthogonalAllocation::new(5, Placement::SingleSite),
        )
    }

    #[test]
    fn every_admitted_ticket_resolves_exactly_once() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).shards(2).build();
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            let mut tickets = HashSet::new();
            for k in 0..20u64 {
                let q = RangeQuery::new((k % 5) as usize, 0, 1, 2).buckets(5);
                let req = QueryRequest::new((k % 4) as usize, q)
                    .arriving_at(Micros::from_millis(k / 4 * 2));
                tickets.insert(h.submit(req).unwrap());
            }
            tickets
        });
        assert_eq!(report.stats.admitted, 20);
        assert_eq!(report.stats.completed, 20);
        assert_eq!(report.stats.errors, 0);
        let resolved: HashSet<Ticket> = report.unclaimed.iter().map(|r| r.ticket).collect();
        assert_eq!(resolved, report.output);
        assert_eq!(report.unclaimed.len(), 20, "no duplicate resolutions");
    }

    /// Golden digests pinned from the implementation that still had
    /// separate serial and fused drains, so the equivalence tests keep
    /// asserting something now that every configuration runs one drain.
    const VIRTUAL_SERVING_GOLDEN: u64 = 2_471_497_409_512_370_155;
    const FUSED_SERVING_GOLDEN: u64 = 7_300_229_984_834_793_622;

    /// Every shard count and fuse setting the equivalence tests sweep.
    const CONFIGS: [(bool, usize); 6] = [
        (false, 1),
        (false, 2),
        (false, 4),
        (true, 1),
        (true, 2),
        (true, 4),
    ];

    /// Per ticket: response time, schedule and span `phase_digest`.
    type TicketKey = (Ticket, Micros, Vec<(Bucket, usize)>, u64);

    /// The [`TicketKey`]s of one serving run, in ticket order.
    fn ticket_keys<A: ReplicaSource + Sync, S: RetrievalSolver + Sync>(
        engine: &Engine<'_, A, S>,
        responses: &[ServeResponse],
    ) -> Vec<TicketKey> {
        let digests: std::collections::BTreeMap<u64, u64> = engine
            .postmortem()
            .spans
            .iter()
            .map(|s| (s.id.0, s.phase_digest()))
            .collect();
        let mut keys: Vec<TicketKey> = responses
            .iter()
            .map(|r| {
                let out = r.result.as_ref().expect("every query is feasible");
                (
                    r.ticket,
                    out.outcome.response_time,
                    out.outcome.schedule.assignments().to_vec(),
                    digests[&r.ticket.0],
                )
            })
            .collect();
        keys.sort();
        keys
    }

    /// An engine for one point of the equivalence sweep.
    fn sweep_engine<'a>(
        system: &'a SystemConfig,
        alloc: &'a OrthogonalAllocation,
        spec: crate::spec::SolverSpec,
        (fuse, shards): (bool, usize),
    ) -> Engine<'a, OrthogonalAllocation, crate::spec::AnySolver> {
        Engine::builder(system, alloc)
            .solver_spec(if fuse {
                spec.batch_fuse(true).parallelism(3)
            } else {
                spec
            })
            .shards(shards)
            .build()
    }

    #[test]
    fn virtual_serving_matches_submit_batch() {
        use std::hash::{Hash, Hasher};
        let (system, alloc) = setup();
        let queries: Vec<BatchQuery> = (0..12)
            .map(|k| BatchQuery {
                stream: k % 3,
                arrival: Micros::from_millis((k / 3) as u64 * 2),
                buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(5),
            })
            .collect();
        let mut digest = std::collections::hash_map::DefaultHasher::new();
        for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
            let spec = SolverSpec::new(SolverKind::PushRelabelBinary).arena_layout(layout);
            let want: Vec<Micros> = sweep_engine(&system, &alloc, spec, (false, 1))
                .submit_batch(&queries)
                .into_iter()
                .map(|r| r.unwrap().outcome.response_time)
                .collect();
            want.hash(&mut digest);
            let mut timelines: Option<Vec<TicketKey>> = None;
            for config in CONFIGS {
                let mut engine = sweep_engine(&system, &alloc, spec, config);
                let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
                    for q in &queries {
                        h.submit(
                            QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival),
                        )
                        .unwrap();
                    }
                });
                let keys = ticket_keys(&engine, &report.unclaimed);
                let got: Vec<Micros> = keys.iter().map(|k| k.1).collect();
                assert_eq!(got, want, "{layout:?} {config:?}");
                match &timelines {
                    None => timelines = Some(keys),
                    Some(w) => assert_eq!(&keys, w, "{layout:?} {config:?}"),
                }
            }
            timelines.hash(&mut digest);
        }
        assert_eq!(
            digest.finish(),
            VIRTUAL_SERVING_GOLDEN,
            "pinned golden digest"
        );
    }

    #[test]
    fn queue_full_and_shutdown_rejections_are_typed() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        // Submit from a producer thread while the single worker is held
        // idle only by queue pressure — capacity 1 forces QueueFull once
        // at least one item is waiting. To make it deterministic, close
        // admission first and observe ShuttingDown.
        let report = engine.serve(
            ServeConfig::default().virtual_time().queue_capacity(1),
            |h| {
                h.shutdown();
                let err = h.submit(QueryRequest::new(0, buckets.clone())).unwrap_err();
                assert_eq!(err, Rejected::ShuttingDown);
            },
        );
        assert_eq!(report.stats.rejected_for(RejectReason::ShuttingDown), 1);
        assert_eq!(report.stats.admitted, 0);
        assert_eq!(report.stats.completed, 0);
    }

    #[test]
    fn past_deadline_rejected_at_admission() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            let err = h
                .submit(
                    QueryRequest::new(0, buckets.clone())
                        .arriving_at(Micros::from_millis(10))
                        .deadline(Micros::from_millis(5)),
                )
                .unwrap_err();
            assert_eq!(
                err,
                Rejected::DeadlineUnmeetable {
                    deadline: Micros::from_millis(5),
                    now: Micros::from_millis(10),
                }
            );
        });
        assert_eq!(
            report.stats.rejected_for(RejectReason::DeadlineUnmeetable),
            1
        );
    }

    #[test]
    fn queue_depth_of_an_unknown_shard_is_none() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).shards(2).build();
        engine.serve(ServeConfig::default().virtual_time(), |h| {
            assert!(h.queue_depth(0).is_some());
            assert!(h.queue_depth(1).is_some());
            assert_eq!(h.queue_depth(2), None);
            assert_eq!(h.queue_depth(usize::MAX), None);
        });
    }

    #[test]
    fn batch_class_is_shed_above_the_watermark() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        // Watermark 0: every Batch request sheds, other classes sail.
        let report = engine.serve(
            ServeConfig::default().virtual_time().shed_watermark(0),
            |h| {
                let shed = h
                    .submit(QueryRequest::new(0, buckets.clone()).class(PriorityClass::Batch))
                    .unwrap_err();
                assert!(matches!(shed, Rejected::ShedLowPriority { .. }));
                h.submit(QueryRequest::new(0, buckets.clone()).class(PriorityClass::Interactive))
                    .unwrap();
            },
        );
        assert_eq!(report.stats.rejected_for(RejectReason::ShedLowPriority), 1);
        assert_eq!(report.stats.completed, 1);
        let interactive = &report.stats.classes[PriorityClass::Interactive as usize];
        assert_eq!(interactive.completed, 1);
    }

    /// Rejection spans never received a ticket, so none may carry an
    /// admitted ticket's id: every one keeps id 0.
    #[test]
    fn rejection_spans_keep_id_zero() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let buckets = RangeQuery::new(0, 0, 2, 3).buckets(5);
        // Real clock, one queue slot: floods outrun the worker, and
        // claiming every admitted response between floods keeps tickets
        // and rejections interleaved.
        let report = engine.serve(ServeConfig::default().queue_capacity(1), |h| {
            for _ in 0..5 {
                let admitted = (0..20)
                    .filter(|_| h.submit(QueryRequest::new(0, buckets.clone())).is_ok())
                    .count();
                for _ in 0..admitted {
                    h.recv().expect("admitted ticket resolves");
                }
            }
        });
        assert!(report.stats.rejected_for(RejectReason::QueueFull) > 0);
        let pm = engine.postmortem();
        assert!(!pm.rejections.is_empty());
        assert!(pm.rejections.iter().all(|s| s.id == SpanId(0)));
    }

    #[test]
    fn coalesced_same_stream_requests_hit_the_delta_path() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary).reuse(ReusePolicy {
                    warm_start: true,
                    cache_capacity: 0,
                }),
            )
            .build();
        let q1 = RangeQuery::new(0, 0, 2, 3).buckets(5);
        let q2 = RangeQuery::new(0, 1, 2, 3).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            h.submit(QueryRequest::new(0, q1.clone())).unwrap();
            h.submit(QueryRequest::new(0, q2.clone()).arriving_at(Micros::from_millis(40)))
                .unwrap();
        });
        assert_eq!(report.stats.completed, 2);
        assert!(
            engine.stats().reuse.delta_patches >= 1,
            "same-stream coalescing should warm-start"
        );
    }

    #[test]
    fn deadline_budget_forces_anytime_but_stays_feasible() {
        let (system, alloc) = setup();
        // Probe budget 0 through the engine: every solve bails to its
        // feasible upper bound immediately.
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary)
                    .budget(SolveBudget::default().with_max_probes(0)),
            )
            .shards(2)
            .build();
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for s in 0..4usize {
                let q = RangeQuery::new(s, 0, 2, 3).buckets(5);
                h.submit(QueryRequest::new(s, q)).unwrap();
            }
        });
        assert_eq!(report.stats.completed, 4);
        assert_eq!(report.stats.errors, 0);
        assert_eq!(report.stats.solve_stats.budget_expirations, 4);
        for r in &report.unclaimed {
            let out = r.result.as_ref().unwrap();
            assert_eq!(out.outcome.flow_value as usize, 6);
        }
    }

    #[test]
    fn panicking_solver_resolves_with_typed_failure() {
        #[derive(Clone, Copy)]
        struct AlwaysPanics;
        impl RetrievalSolver for AlwaysPanics {
            fn name(&self) -> &'static str {
                "always-panics"
            }
            fn solve_in(
                &self,
                _inst: &crate::network::RetrievalInstance,
                _ws: &mut crate::workspace::Workspace,
            ) -> Result<crate::schedule::RetrievalOutcome, crate::error::SolveError> {
                panic!("injected bug");
            }
        }
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build_with(AlwaysPanics);
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap()
        });
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.panics, 1);
        assert_eq!(
            report.unclaimed[0].result.as_ref().unwrap_err(),
            &ServeError::Engine(EngineError::ShardFailed { shard: 0 })
        );
    }

    /// A query whose completion (or retry probe) does not fit the
    /// microsecond clock resolves to a typed error through both front
    /// ends — never a contained panic, never a wrapped-around completion.
    #[test]
    fn overflowing_arrival_is_a_typed_error_on_both_front_ends() {
        let system = rds_storage::experiments::paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let arrival = Micros::from_micros(u64::MAX - 10);
        let buckets = RangeQuery::new(0, 0, 2, 3).buckets(7);
        let query = BatchQuery {
            stream: 0,
            arrival,
            buckets: buckets.clone(),
        };
        // Every replica of the query's first bucket is down, so the
        // query is infeasible and the retry loop probes past the clock.
        let dead: Vec<usize> = alloc.replicas(buckets[0]).iter().collect();
        let retrying = || {
            Engine::builder(&system, &alloc)
                .fault_injector(FaultInjector::pinned(
                    &crate::fault::HealthMap::with_offline(&dead),
                ))
                .retry_policy(RetryPolicy {
                    max_retries: 2,
                    backoff: Micros::from_millis(1),
                })
                .build()
        };
        let want = EngineError::Session(crate::error::SessionError::ClockOverflow { arrival });
        for mut engine in [Engine::builder(&system, &alloc).build(), retrying()] {
            let results = engine.submit_batch(std::slice::from_ref(&query));
            assert_eq!(results[0].as_ref().unwrap_err(), &want);
            assert_eq!(engine.stats().shard_failures, 0);
            assert_eq!(engine.stats().errors, 1);

            let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
                h.submit(QueryRequest::new(1, buckets.clone()).arriving_at(arrival))
                    .unwrap();
            });
            assert_eq!(report.stats.panics, 0);
            assert_eq!(report.stats.errors, 1);
            assert_eq!(engine.stats().shard_failures, 0);
            assert_eq!(
                report.unclaimed[0].result.as_ref().unwrap_err(),
                &ServeError::Engine(want)
            );
        }
    }

    #[test]
    fn real_clock_sees_midflight_recovery() {
        let (system, alloc) = setup();
        let buckets = RangeQuery::new(0, 1, 1, 1).buckets(5);
        let replicas: Vec<usize> = alloc.replicas(buckets[0]).iter().collect();
        // Every replica is down from t=0 and recovers at t=5ms real time.
        // The batch engine (simulated probes at arrival+backoff) with a
        // 1ms backoff x3 would give up at 3ms; the serving loop's real
        // clock keeps probing wall time and sees the recovery.
        let mut injector = FaultInjector::new();
        for &d in &replicas {
            injector.schedule(Micros::ZERO, d, DiskHealth::Offline);
            injector.schedule(Micros::from_millis(5), d, DiskHealth::Healthy);
        }
        let mut engine = Engine::builder(&system, &alloc)
            .fault_injector(injector)
            .retry_policy(RetryPolicy {
                max_retries: 30,
                backoff: Micros::from_millis(1),
            })
            .build();
        let report = engine.serve(ServeConfig::default(), |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap()
        });
        assert_eq!(report.stats.completed, 1);
        assert!(
            report.unclaimed[0].result.is_ok(),
            "real-clock replanning should observe the recovery: {:?}",
            report.unclaimed[0].result
        );
        assert!(engine.stats().retries >= 1);
    }

    #[test]
    fn serve_metrics_registry_has_admission_counters() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let buckets = RangeQuery::new(0, 0, 1, 2).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap();
        });
        let reg = report.stats.to_registry();
        assert_eq!(reg.counter("rds_serve_admitted_total"), Some(1));
        assert_eq!(reg.counter("rds_serve_completed_total"), Some(1));
        assert_eq!(reg.gauge("rds_serve_max_queue_depth"), Some(1));
        let text = reg.to_prometheus();
        assert!(text.contains("rds_serve_standard_turnaround_us"));
    }

    #[test]
    fn span_timelines_are_shard_count_invariant() {
        let (system, alloc) = setup();
        let queries: Vec<BatchQuery> = (0..24)
            .map(|k| BatchQuery {
                stream: k % 6,
                arrival: Micros::from_millis((k / 6) as u64 * 3),
                buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(5),
            })
            .collect();
        let mut want: Option<std::collections::BTreeMap<u64, u64>> = None;
        for shards in [1usize, 2, 4] {
            let mut engine = Engine::builder(&system, &alloc).shards(shards).build();
            engine.serve(ServeConfig::default().virtual_time(), |h| {
                for q in &queries {
                    h.submit(QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival))
                        .unwrap();
                }
            });
            let pm = engine.postmortem();
            assert_eq!(pm.spans.len(), 24, "{shards} shards retain every span");
            let digests: std::collections::BTreeMap<u64, u64> = pm
                .spans
                .iter()
                .map(|s| (s.id.0, s.phase_digest()))
                .collect();
            assert_eq!(digests.len(), 24, "{shards} shards: one span per ticket");
            match &want {
                None => want = Some(digests),
                Some(w) => assert_eq!(&digests, w, "{shards} shards"),
            }
        }
    }

    #[test]
    fn fused_serving_matches_serial_across_shard_counts() {
        use std::hash::{Hash, Hasher};
        let (system, alloc) = setup();
        let queries: Vec<BatchQuery> = (0..24)
            .map(|k| BatchQuery {
                stream: k % 6,
                arrival: Micros::from_millis((k / 6) as u64 * 3),
                buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(5),
            })
            .collect();
        let config = || {
            ServeConfig::default()
                .virtual_time()
                .batch_window(Duration::from_millis(5))
                .batch_max(8)
        };
        // The first (serial, single-shard) run of each width sets the
        // per-ticket schedules and span digests; every other shard count
        // and fuse setting must reproduce them bit-for-bit.
        let mut digest = std::collections::hash_map::DefaultHasher::new();
        for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
            let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
                .reuse(ReusePolicy::warm())
                .arena_layout(layout);
            let mut want: Option<Vec<TicketKey>> = None;
            for (fuse, shards) in CONFIGS {
                let mut engine = sweep_engine(&system, &alloc, spec, (fuse, shards));
                let report = engine.serve(config(), |h| {
                    for q in &queries {
                        h.submit(
                            QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival),
                        )
                        .unwrap();
                    }
                });
                let what = format!("{layout:?} fuse={fuse} {shards} shards");
                assert_eq!(report.stats.completed, 24, "{what}");
                if fuse {
                    assert!(
                        engine.stats().fused_batches >= 1,
                        "{what}: fused drain engaged"
                    );
                }
                let keys = ticket_keys(&engine, &report.unclaimed);
                match &want {
                    None => want = Some(keys),
                    Some(w) => assert_eq!(&keys, w, "{what}"),
                }
            }
            want.hash(&mut digest);
        }
        assert_eq!(
            digest.finish(),
            FUSED_SERVING_GOLDEN,
            "pinned golden digest"
        );
    }

    #[test]
    fn virtual_batch_window_coalesces_deterministically() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let report = engine.serve(
            ServeConfig::default()
                .virtual_time()
                .batch_window(Duration::from_millis(50))
                .batch_max(4),
            |h| {
                for k in 0..10usize {
                    let q = RangeQuery::new(k % 5, 0, 1, 2).buckets(5);
                    h.submit(
                        QueryRequest::new(k % 2, q).arriving_at(Micros::from_millis(k as u64)),
                    )
                    .unwrap();
                }
            },
        );
        assert_eq!(report.stats.completed, 10);
        // Under the virtual clock the window coalesces to deterministic
        // boundaries — the batch fills to batch_max or admission closes —
        // so 10 submissions with batch_max 4 always drain as [4, 4, 2],
        // independent of scheduler timing.
        let pm = engine.postmortem();
        let mut sizes: Vec<u64> = pm
            .spans
            .iter()
            .filter_map(|s| {
                s.phases()
                    .iter()
                    .find(|p| p.kind == PhaseKind::Coalesced)
                    .map(|p| p.a)
            })
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 4, 4, 4, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn recorder_steady_state_is_allocation_free() {
        let (system, alloc) = setup();
        // healthy_head 0 recycles every healthy span straight back to the
        // free list, so after the first checkout per shard the recorder
        // must never allocate another shell.
        let mut engine = Engine::builder(&system, &alloc)
            .shards(2)
            .flight_recorder(crate::obs::recorder::FlightRecorderConfig {
                capacity: 8,
                healthy_head: 0,
                max_phases: 32,
            })
            .build();
        let buckets = |k: usize| RangeQuery::new(k % 5, 0, 1, 2).buckets(5);
        let r1 = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for k in 0..16usize {
                h.submit(
                    QueryRequest::new(k % 4, buckets(k))
                        .arriving_at(Micros::from_millis((k / 4) as u64)),
                )
                .unwrap();
            }
        });
        assert_eq!(r1.stats.completed, 16);
        let first = r1.stats.recorder.allocation_events;
        assert_eq!(first, 2, "one span shell per busy shard");
        let r2 = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for k in 0..16usize {
                h.submit(
                    QueryRequest::new(k % 4, buckets(k))
                        .arriving_at(Micros::from_millis(10 + (k / 4) as u64)),
                )
                .unwrap();
            }
        });
        assert_eq!(r2.stats.completed, 16);
        assert_eq!(
            r2.stats.recorder.allocation_events, first,
            "steady state allocates no span shells"
        );
    }

    #[test]
    fn deadline_miss_is_retrievable_via_postmortem_and_exports() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc).build();
        let buckets = RangeQuery::new(0, 0, 2, 3).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            // A 1us deadline admits (it has not passed at arrival) but any
            // real schedule completes later, so the span is triggered.
            h.submit(
                QueryRequest::new(0, buckets.clone())
                    .class(PriorityClass::Interactive)
                    .deadline(Micros::from_micros(1)),
            )
            .unwrap();
            h.shutdown();
            let err = h.submit(QueryRequest::new(1, buckets.clone())).unwrap_err();
            assert_eq!(err, Rejected::ShuttingDown);
        });
        assert_eq!(report.stats.deadline_misses, 1);
        assert_eq!(
            report.stats.rejected_by[RejectReason::ShuttingDown as usize]
                [PriorityClass::Standard as usize],
            1
        );

        let pm = engine.postmortem();
        assert!(
            pm.spans
                .iter()
                .any(|s| s.deadline_missed && s.is_triggered()),
            "deadline miss must survive retention"
        );
        assert_eq!(pm.rejections.len(), 1);
        assert!(matches!(
            pm.rejections[0].outcome,
            SpanOutcome::Rejected(RejectReason::ShuttingDown)
        ));
        let trace = pm.to_chrome_trace();
        crate::obs::metrics::parse_json_value(&trace).expect("chrome trace is valid JSON");
        let statusz = pm.to_statusz();
        assert!(statusz.contains("DEADLINE-MISSED"));

        // SLO burn metrics reach both exposition formats, and the labeled
        // rejection counter round-trips.
        let reg = report.stats.to_registry();
        assert_eq!(
            reg.counter_labeled(
                "rds_serve_rejected_total",
                &[("class", "standard"), ("reason", "shutting_down")],
            ),
            Some(1)
        );
        let prom = reg.to_prometheus();
        assert!(prom.contains("rds_slo_latency_burn_milli"));
        let json = reg.to_json();
        assert!(json.contains("rds_slo_latency_burn_milli"));
        let round = MetricsRegistry::parse_prometheus(&prom).unwrap();
        assert_eq!(round, reg);
    }
}
