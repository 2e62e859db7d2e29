//! Replays generated requests through one session per stream — the
//! layer beneath the engine — and captures the loaded retrieval instance
//! each query was solved on, for the kernel replays and the oracle.

use crate::workload::{Request, Workload};
use replicated_retrieval::core::fault::HealthMap;
use replicated_retrieval::core::network::RetrievalInstance;
use replicated_retrieval::core::session::{ReuseCounters, ReusePolicy, SessionState};
use replicated_retrieval::core::spec::{SolverKind, SolverSpec};
use replicated_retrieval::core::workspace::Workspace;
use replicated_retrieval::storage::model::{Disk, Site, SystemConfig};
use replicated_retrieval::storage::time::Micros;
use std::collections::HashMap;
use std::time::Instant;

/// The inputs of one solve as the session saw them: the system with each
/// disk's initial load raised by the work still queued on it at the
/// query's arrival, the query, and the disk health.
pub struct Captured {
    /// Index of the request in the replayed sequence.
    pub k: usize,
    pub system: SystemConfig,
    pub query: usize,
    pub health: HealthMap,
    /// The session's answer (modeled response time, µs).
    pub response_us: u64,
}

impl Captured {
    /// Builds the retrieval network of this solve.
    pub fn instance(&self, w: &Workload) -> RetrievalInstance {
        RetrievalInstance::build_with_health(
            &self.system,
            &w.alloc,
            &w.queries[self.query],
            &self.health,
        )
        .expect("every bucket keeps a live replica")
    }
}

/// What the session replay measured.
#[derive(Default)]
pub struct SessionReplay {
    /// Per request: time inside the session submit, µs.
    pub submit_us: Vec<f64>,
    /// Per request: the session's answer, µs of modeled response time.
    pub responses: Vec<Option<u64>>,
    pub counters: ReuseCounters,
    /// Requests whose disk health differed from their stream's previous
    /// request's.
    pub epoch_changes: u64,
    pub errors: u64,
    pub captured: Vec<Captured>,
}

/// The system as a query arriving at `arrival` sees it after `state`'s
/// earlier queries: initial loads include the remaining queued work.
fn loaded_system(w: &Workload, state: &SessionState, arrival: Micros) -> SystemConfig {
    let disks = (0..w.system.num_disks())
        .map(|j| {
            let d = w.system.disk(j);
            Disk {
                initial_load: d.initial_load
                    + (state.current_load(j) + state.now()).saturating_sub(arrival),
                ..*d
            }
        })
        .collect();
    SystemConfig::new(vec![Site {
        name: "loaded".into(),
        disks,
    }])
}

/// Replays `requests` in order through one `SessionState` per stream,
/// sharing one workspace as an engine shard does, with the engine's
/// solver, reuse policy, objective and fault schedule. The first
/// `capture` solves are captured.
pub fn replay_sessions(w: &Workload, requests: &[Request], capture: usize) -> SessionReplay {
    let solver = SolverSpec::new(SolverKind::PushRelabelBinary).build();
    let mut ws = Workspace::new();
    let mut states: HashMap<usize, (SessionState, u64)> = HashMap::new();
    let mut health = HealthMap::all_healthy();
    let mut out = SessionReplay {
        submit_us: Vec::with_capacity(requests.len()),
        responses: Vec::with_capacity(requests.len()),
        ..SessionReplay::default()
    };
    for (k, r) in requests.iter().enumerate() {
        let (state, last_fp) = states.entry(r.stream).or_insert_with(|| {
            let mut s = SessionState::with_reuse(w.system.num_disks(), ReusePolicy::warm());
            s.set_objective(w.objective);
            (s, HealthMap::HEALTHY_FINGERPRINT)
        });
        match &w.faults {
            Some(f) => f.health_at(r.arrival, &mut health),
            None => health.reset(),
        }
        let fp = health.fingerprint();
        out.epoch_changes += u64::from(fp != *last_fp);
        *last_fp = fp;
        let system = (k < capture).then(|| loaded_system(w, state, r.arrival));
        let buckets = &w.queries[r.query];
        let t0 = Instant::now();
        let result = state.submit_with_health(
            &w.system, &w.alloc, &solver, &mut ws, r.arrival, buckets, &health,
        );
        out.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let rt = result.ok().map(|o| o.outcome.response_time.as_micros());
        out.errors += u64::from(rt.is_none());
        out.responses.push(rt);
        if let (Some(system), Some(response_us)) = (system, rt) {
            out.captured.push(Captured {
                k,
                system,
                query: r.query,
                health: health.clone(),
                response_us,
            });
        }
    }
    for (state, _) in states.values() {
        out.counters.merge(&state.reuse_counters());
    }
    out
}
