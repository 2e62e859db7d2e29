//! Error types of the fallible solver and session APIs.
//!
//! Every solver entry point ([`crate::solver::RetrievalSolver::solve_in`]
//! and the `solve` convenience wrapper) returns `Result<_, SolveError>`
//! instead of panicking on malformed or unsolvable inputs;
//! [`crate::session::SessionState::submit_with`] wraps those plus the
//! session-level protocol violations in [`SessionError`].

use rds_decluster::query::Bucket;
use rds_storage::time::Micros;

/// Why a solve could not produce a complete retrieval schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The query cannot be completed at any budget: some bucket has no
    /// retrievable replica (all of them offline, or no replica path at
    /// all), so no budget — however large — retrieves the whole query.
    Infeasible {
        /// The first bucket with no surviving replica, when the failure
        /// was detected up front from the health map; `None` when the
        /// capacity increments simply ran out mid-solve.
        bucket: Option<Bucket>,
        /// Flow delivered (or deliverable) when infeasibility was
        /// established.
        delivered: i64,
        /// The query size `|Q|` the flow had to reach.
        required: i64,
    },
    /// The final flow claimed completion but left `bucket` without a
    /// saturated edge to a disk — a solver-internal invariant violation
    /// surfaced as an error instead of a panic.
    IncompleteFlow {
        /// The bucket no disk serves in the extracted schedule.
        bucket: Bucket,
    },
    /// The algorithm's preconditions exclude this system (e.g.
    /// `FordFulkersonBasic` on a heterogeneous or loaded system, where
    /// its uniform capacity increments are not optimal).
    UnsupportedSystem {
        /// Human-readable precondition that failed.
        reason: &'static str,
    },
    /// The solver cannot resume from a warm delta-patched workspace
    /// (Ford-Fulkerson and blackbox solvers rebuild per query). Callers
    /// fall back to a cold [`crate::solver::RetrievalSolver::solve_in`];
    /// the [`crate::session::SessionState`] delta path does this
    /// transparently.
    DeltaUnsupported {
        /// `RetrievalSolver::name()` of the refusing solver.
        solver: &'static str,
    },
    /// The instance does not fit the requested compact (`i32`) arena:
    /// some capacity or cached flow exceeds the narrow width's range.
    /// Raised only under [`ArenaLayout::Compact`](crate::spec::ArenaLayout)
    /// — `Auto` measures the instance and widens instead — or when a
    /// delta-patched stream grows past the compact bound mid-session
    /// (the session drops the warm state and re-solves wide).
    ArenaOverflow {
        /// Edge slot whose value overflowed the narrow width.
        edge: usize,
        /// The offending capacity or flow value.
        value: i64,
        /// Name of the width that could not hold it (`"i32"`).
        width: &'static str,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible {
                bucket,
                delivered,
                required,
            } => match bucket {
                Some(b) => write!(
                    f,
                    "retrieval instance is infeasible: bucket {b} has no surviving replica \
                     ({delivered} of {required} units deliverable)"
                ),
                None => write!(
                    f,
                    "retrieval instance is infeasible: {delivered} of {required} units delivered"
                ),
            },
            SolveError::IncompleteFlow { bucket } => {
                write!(f, "bucket {bucket} is not retrieved by the flow")
            }
            SolveError::UnsupportedSystem { reason } => {
                write!(f, "unsupported system: {reason}")
            }
            SolveError::DeltaUnsupported { solver } => {
                write!(f, "solver {solver} does not support warm delta re-solves")
            }
            SolveError::ArenaOverflow { edge, value, width } => {
                write!(
                    f,
                    "instance does not fit the compact arena: edge {edge} holds {value}, \
                     which overflows {width}"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<rds_flow::WidthOverflow> for SolveError {
    fn from(e: rds_flow::WidthOverflow) -> Self {
        SolveError::ArenaOverflow {
            edge: e.edge,
            value: e.value,
            width: e.width,
        }
    }
}

/// Why a session refused or failed a submitted query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// The query's arrival time precedes the previous query's arrival;
    /// session time is virtual and must be monotone non-decreasing.
    NonMonotoneArrival {
        /// The offending arrival time.
        arrival: Micros,
        /// The session's current virtual time.
        now: Micros,
    },
    /// The underlying solve failed.
    Solve(SolveError),
    /// A time derived from the query's arrival (its completion, a disk's
    /// busy horizon or a retry probe) does not fit the microsecond clock.
    ClockOverflow {
        /// The offending arrival time.
        arrival: Micros,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NonMonotoneArrival { arrival, now } => write!(
                f,
                "query arrivals must be monotone: {arrival} precedes current time {now}"
            ),
            SessionError::Solve(e) => write!(f, "solve failed: {e}"),
            SessionError::ClockOverflow { arrival } => {
                write!(f, "times after arrival {arrival} overflow the clock")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for SessionError {
    fn from(e: SolveError) -> Self {
        SessionError::Solve(e)
    }
}

/// Why the batch engine could not produce a result for one query.
///
/// Per-query session failures pass through as [`EngineError::Session`];
/// [`EngineError::ShardFailed`] is the engine's fault-containment
/// boundary — a worker panic is caught per shard and surfaced here
/// instead of crossing `submit_batch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The query's own session submit failed (bad arrival, infeasible or
    /// rejected solve). The rest of the batch is unaffected.
    Session(SessionError),
    /// The worker owning this query's shard panicked before this query
    /// produced a result. Queries of the same shard that completed before
    /// the panic keep their results; other shards are unaffected.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Session(e) => write!(f, "{e}"),
            EngineError::ShardFailed { shard } => {
                write!(
                    f,
                    "shard {shard} worker panicked; its remaining queries were dropped"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for EngineError {
    fn from(e: SessionError) -> Self {
        EngineError::Session(e)
    }
}

impl From<SolveError> for EngineError {
    fn from(e: SolveError) -> Self {
        EngineError::Session(SessionError::Solve(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_failure() {
        let e = SolveError::Infeasible {
            bucket: None,
            delivered: 3,
            required: 5,
        };
        assert!(e.to_string().contains("infeasible"));
        let e = SolveError::Infeasible {
            bucket: Some(Bucket::new(2, 3)),
            delivered: 3,
            required: 5,
        };
        assert!(e.to_string().contains("no surviving replica"));
        let e = SolveError::IncompleteFlow {
            bucket: Bucket::new(1, 2),
        };
        assert!(e.to_string().contains("not retrieved"));
        let e = SolveError::UnsupportedSystem {
            reason: "homogeneous unloaded disks required",
        };
        assert!(e.to_string().contains("homogeneous"));
        let e = SolveError::DeltaUnsupported { solver: "BB-PR" };
        assert!(e.to_string().contains("delta"));
        let e = SolveError::from(rds_flow::WidthOverflow {
            edge: 7,
            value: 1 << 40,
            width: "i32",
        });
        assert!(matches!(e, SolveError::ArenaOverflow { edge: 7, .. }));
        assert!(e.to_string().contains("overflows i32"));
    }

    #[test]
    fn session_error_wraps_solve_error() {
        let inner = SolveError::Infeasible {
            bucket: None,
            delivered: 0,
            required: 1,
        };
        let e = SessionError::from(inner);
        assert_eq!(e, SessionError::Solve(inner));
        assert!(std::error::Error::source(&e).is_some());
        let m = SessionError::NonMonotoneArrival {
            arrival: Micros(5),
            now: Micros(10),
        };
        assert!(m.to_string().contains("monotone"));
        assert!(std::error::Error::source(&m).is_none());
        let o = SessionError::ClockOverflow { arrival: Micros(7) };
        assert!(o.to_string().contains("overflow"));
    }

    #[test]
    fn engine_error_wraps_and_reports() {
        let inner = SessionError::NonMonotoneArrival {
            arrival: Micros(5),
            now: Micros(10),
        };
        let e = EngineError::from(inner);
        assert_eq!(e, EngineError::Session(inner));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("monotone"));

        let s = EngineError::ShardFailed { shard: 3 };
        assert!(s.to_string().contains("shard 3"));
        assert!(std::error::Error::source(&s).is_none());

        let via_solve = EngineError::from(SolveError::UnsupportedSystem { reason: "x" });
        assert!(matches!(
            via_solve,
            EngineError::Session(SessionError::Solve(SolveError::UnsupportedSystem { .. }))
        ));
    }
}
