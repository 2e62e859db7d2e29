//! One benchmark run: set-up, the timed pass(es), the output checks and
//! the result line.

use crate::affinity::Placement;
use crate::drive::{self, BatchRun, RungRun};
use crate::layers;
use crate::replay::replay_sessions;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, Digest};
use crate::workload::{Request, Traffic, Workload, WorkloadId};
use replicated_retrieval::core::verify::oracle_optimal_response;
use std::time::{Duration, Instant};

/// Segments per pass. Each segment sets up afresh — generates the
/// workload, builds an engine with new threads, warms it up — and runs
/// the traffic. A pass reports the trimmed mean of its segments' figures
/// (dropping the lowest and highest [`TRIM`] of them), and `setup_s` is
/// the median of the untraced segments' set-up times.
const SEGMENTS: usize = 20;
const TRIM: f64 = 0.2;
/// Windows per segment: turnaround figures are medians over consecutive
/// windows of requests.
const WINDOWS: usize = 10;

/// Host and provenance block printed with every result.
pub struct Host {
    pub nproc: usize,
    pub available_parallelism: usize,
    /// Fused-lane pool workers; with the shard thread the engine runs
    /// `pool_threads + 1` threads, which stays within the CPUs it has
    /// (at least two threads, as fused batches need a pool).
    pub pool_threads: usize,
    pub workload: WorkloadId,
    pub seed: u64,
}

impl Host {
    fn detect(workload: WorkloadId, seed: u64) -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        // `nproc` honours the CPU affinity mask; fall back to the std
        // figure where the tool is missing.
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(available_parallelism);
        // Online traffic pins its generator to a CPU of its own (see
        // `affinity`); the engine's shard thread and pool share the rest.
        let cpus = nproc.min(available_parallelism);
        let engine_cpus = match workload {
            WorkloadId::Grid100Batch => cpus,
            _ if cpus > 1 => cpus - 1,
            _ => cpus,
        };
        Host {
            nproc,
            available_parallelism,
            pool_threads: engine_cpus.saturating_sub(1).max(1),
            workload,
            seed,
        }
    }

    pub fn engine_threads(&self) -> usize {
        self.pool_threads + 1
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"available_parallelism\": {}, \"engine_threads\": {}, \"pool_threads\": {}, \"shards\": 1, \"rustc\": \"{}\", \"git_revision\": \"{}\", \"workload\": \"{}\", \"seed\": {}}}}}",
            self.nproc,
            self.available_parallelism,
            self.engine_threads(),
            self.pool_threads,
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_GIT_REV"),
            self.workload.name(),
            self.seed
        )
    }
}

/// Output checks; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// The result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// One segment: the workload's traffic on a freshly set-up engine.
pub struct Segment {
    pub rungs: Vec<RungRun>,
    pub batch: Option<BatchRun>,
    pub e2e: E2e,
    pub setup_s: f64,
}

/// The end-to-end figures of one segment, or the trimmed mean over
/// segments.
#[derive(Clone, Copy, Debug, Default)]
pub struct E2e {
    pub qps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub slo_share: f64,
    pub goodput_qps: f64,
    /// Mean turnaround per query (online) or wall time per query (batch).
    pub mean_us: f64,
}

impl E2e {
    fn over(segments: &[Segment]) -> E2e {
        let m = |f: fn(&E2e) -> f64| {
            stats::trimmed_mean(
                &segments.iter().map(|s| f(&s.e2e)).collect::<Vec<_>>(),
                TRIM,
            )
        };
        E2e {
            qps: m(|e| e.qps),
            p50_us: m(|e| e.p50_us),
            p90_us: m(|e| e.p90_us),
            p99_us: m(|e| e.p99_us),
            slo_share: m(|e| e.slo_share),
            goodput_qps: m(|e| e.goodput_qps),
            mean_us: m(|e| e.mean_us),
        }
    }
}

impl Segment {
    pub fn nominal(&self) -> Option<&RungRun> {
        self.rungs.iter().find(|r| !r.overload)
    }

    /// The answers the reference digest covers: the nominal rung's, or
    /// every batch answer.
    fn answers(&self) -> &[Option<u64>] {
        match (&self.batch, self.nominal()) {
            (Some(b), _) => &b.responses,
            (None, Some(n)) => &n.responses,
            (None, None) => &[],
        }
    }
}

/// One pass: [`SEGMENTS`] segments and the trimmed mean of their figures.
pub struct Pass {
    pub segments: Vec<Segment>,
    pub e2e: E2e,
}

impl Pass {
    /// Requests offered and requests that failed (error answers, and
    /// rejections on rungs that must not reject).
    fn attempted_failed(&self) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = 0;
        for seg in &self.segments {
            for r in &seg.rungs {
                attempted += r.acct.sent;
                failed += r.acct.failed + if r.overload { 0 } else { r.acct.rejected };
            }
            if let Some(b) = &seg.batch {
                attempted += b.acct.sent;
                failed += b.acct.failed;
            }
        }
        (attempted, failed)
    }

    /// Every segment's rungs.
    pub fn rungs(&self) -> impl Iterator<Item = &RungRun> {
        self.segments.iter().flat_map(|s| &s.rungs)
    }
}

/// Share of `turnaround` (one entry per request sent) answered within
/// `limit_us`; unanswered requests miss.
fn share_within(turnaround: &[Option<f64>], limit_us: f64) -> f64 {
    let hits = turnaround
        .iter()
        .flatten()
        .filter(|&&t| t <= limit_us)
        .count();
    stats::ratio(hits as f64, turnaround.len() as f64)
}

/// The `q`-quantile of the answered requests in `turnaround`.
fn answered_quantile(turnaround: &[Option<f64>], q: f64) -> f64 {
    stats::percentile(
        &stats::sorted(turnaround.iter().flatten().copied().collect()),
        q,
    )
}

/// Sets up afresh and runs the workload's traffic for `seconds`.
fn run_segment(id: WorkloadId, seed: u64, host: &Host, seconds: f64, traced: bool) -> Segment {
    let t0 = Instant::now();
    let w = Workload::generate(id, seed, seconds);
    // Online traffic has a generator thread; keep it off the engine's
    // CPUs (batch traffic is driven by the engine's own shard thread).
    let placement = match w.traffic {
        Traffic::Online { .. } => Placement::split(),
        Traffic::Batch { .. } => None,
    };
    if let Some(p) = &placement {
        p.engine();
    }
    let mut engine = drive::build_engine(&w, host.pool_threads, traced);
    drive::warm_up(&mut engine, &w);
    let setup_s = t0.elapsed().as_secs_f64();
    let limit = w.limit_us;
    let segment = match &w.traffic {
        Traffic::Online { nominal, overload } => {
            let p = placement.as_ref();
            let rungs = vec![
                drive::run_rung(&mut engine, &w, nominal, traced, p),
                drive::run_rung(&mut engine, &w, overload, traced, p),
            ];
            let (n, top) = (&rungs[0], &rungs[1]);
            let answered: Vec<f64> = n.turnaround_us.iter().flatten().copied().collect();
            let t = &n.turnaround_us;
            let e2e = E2e {
                qps: answered.len() as f64 / n.wall.as_secs_f64(),
                p50_us: stats::window_median(t, WINDOWS, |w| answered_quantile(w, 0.5)),
                p90_us: stats::window_median(t, WINDOWS, |w| answered_quantile(w, 0.9)),
                p99_us: answered_quantile(t, 0.99),
                slo_share: share_within(t, limit),
                // Requests are due at the rung's rate, so a window's
                // goodput is that rate times its share within the limit.
                goodput_qps: top.rate_qps
                    * stats::window_median(&top.turnaround_us, WINDOWS, |w| share_within(w, limit)),
                mean_us: stats::mean(&answered),
            };
            Segment {
                rungs,
                batch: None,
                e2e,
                setup_s,
            }
        }
        Traffic::Batch { batch } => {
            let b = drive::run_batches(&mut engine, &w, *batch, Duration::from_secs_f64(seconds));
            let ok: Vec<Option<f64>> = b
                .responses
                .iter()
                .zip(&b.turnaround_us)
                .map(|(r, &t)| r.map(|_| t))
                .collect();
            let wall = b.wall.as_secs_f64();
            let answered = ok.iter().flatten().count() as f64;
            let e2e = E2e {
                qps: answered / wall,
                p50_us: stats::window_median(&ok, WINDOWS, |w| answered_quantile(w, 0.5)),
                p90_us: stats::window_median(&ok, WINDOWS, |w| answered_quantile(w, 0.9)),
                p99_us: answered_quantile(&ok, 0.99),
                slo_share: share_within(&ok, limit),
                goodput_qps: answered / wall * share_within(&ok, limit),
                mean_us: wall * 1e6 / answered,
            };
            Segment {
                rungs: Vec::new(),
                batch: Some(b),
                e2e,
                setup_s,
            }
        }
    };
    if let Some(p) = &placement {
        p.release();
    }
    segment
}

fn run_pass(id: WorkloadId, seed: u64, host: &Host, seconds: f64, traced: bool) -> Pass {
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|_| run_segment(id, seed, host, seconds / SEGMENTS as f64, traced))
        .collect();
    let e2e = E2e::over(&segments);
    Pass { segments, e2e }
}

fn print_pass(label: &str, pass: &Pass) {
    for (i, seg) in pass.segments.iter().enumerate() {
        for r in &seg.rungs {
            let late = stats::sorted(r.late_us.clone());
            println!(
                "{label} segment {i} rung {:<8} sent {} answered {} rejected {} (queue_full {}, shed {}) failed {} | gen late p50 {:.2}us p99 {:.2}us | max queue {}",
                r.name,
                r.acct.sent,
                r.acct.answered,
                r.acct.rejected,
                r.rejected_queue_full,
                r.rejected_shed,
                r.acct.failed,
                stats::percentile(&late, 0.5),
                stats::percentile(&late, 0.99),
                r.stats.max_queue_depth,
            );
        }
        if let Some(b) = &seg.batch {
            println!(
                "{label} segment {i} batch loop sent {} answered {} failed {}",
                b.acct.sent, b.acct.answered, b.acct.failed
            );
        }
        let e = &seg.e2e;
        println!(
            "{label} segment {i} set-up {:.4}s | qps {:.1} | turnaround p50 {:.2}us p90 {:.2}us p99 {:.2}us | slo_share {:.5} | goodput {:.1}/s",
            seg.setup_s, e.qps, e.p50_us, e.p90_us, e.p99_us, e.slo_share, e.goodput_qps
        );
    }
    let e = &pass.e2e;
    println!(
        "{label} trimmed mean qps {:.1} | turnaround p50 {:.2}us p90 {:.2}us p99 {:.2}us (p99 is recorded, not gated) | slo_share {:.5} | goodput {:.1}/s",
        e.qps, e.p50_us, e.p90_us, e.p99_us, e.slo_share, e.goodput_qps
    );
}

/// The requests the reference covers: the nominal rung's (identical in
/// every segment), or the longest segment's batch requests.
fn checked_requests(w: &Workload, passes: &[&Pass]) -> Vec<Request> {
    match &w.traffic {
        Traffic::Online { nominal, .. } => nominal.requests.clone(),
        Traffic::Batch { .. } => {
            let longest = passes
                .iter()
                .flat_map(|p| &p.segments)
                .map(|s| s.answers().len())
                .max()
                .unwrap_or(0);
            (0..longest).map(|k| w.batch_request(k)).collect()
        }
    }
}

fn check_pass(reference: &[Option<u64>], pass: &Pass, label: &str, checks: &mut Checks) {
    for (i, seg) in pass.segments.iter().enumerate() {
        for r in &seg.rungs {
            let a = r.acct;
            checks.require(a.exactly_once(), || {
                format!(
                    "{label} segment {i} {}: sent {} != answered {} + rejected {} (admitted {}, duplicates {})",
                    r.name, a.sent, a.answered, a.rejected, a.admitted, a.duplicates
                )
            });
            let s = &r.stats;
            checks.require(
                s.submitted == a.sent && s.admitted == a.admitted && s.completed == a.answered,
                || {
                    format!(
                        "{label} segment {i} {}: engine counters disagree with the benchmark's",
                        r.name
                    )
                },
            );
            checks.require(a.failed == 0, || {
                format!("{label} segment {i} {}: {} error answers", r.name, a.failed)
            });
            if !r.overload {
                checks.require(a.rejected == 0, || {
                    format!("{label} segment {i} {}: {} rejections", r.name, a.rejected)
                });
            }
        }
        let answers = seg.answers();
        let got = Digest::of_responses(answers);
        let want = Digest::of_responses(&reference[..answers.len()]);
        checks.require(got == want, || {
            format!(
                "{label} segment {i}: response digest {:016x} != reference {:016x}",
                got.value(),
                want.value()
            )
        });
    }
}

/// Spot-checks the reference: a session replay of the first requests
/// must agree with it, and the first captured solves must equal
/// `oracle_optimal_response` on the loaded instance.
fn spot_check(w: &Workload, requests: &[Request], reference: &[Option<u64>], checks: &mut Checks) {
    let (replayed, oracles) = match w.id {
        WorkloadId::Grid100Batch => (8, 2),
        _ => (2_000, 16),
    };
    let n = replayed.min(requests.len());
    let replay = replay_sessions(w, &requests[..n], oracles);
    checks.require(replay.responses[..] == reference[..n], || {
        "session replay disagrees with the reference".into()
    });
    for c in &replay.captured {
        let oracle = oracle_optimal_response(&c.instance(w)).as_micros();
        checks.require(
            oracle == c.response_us && Some(oracle) == reference[c.k],
            || {
                format!(
                    "request {}: oracle {oracle}us, session {}us, reference {:?}",
                    c.k, c.response_us, reference[c.k]
                )
            },
        );
    }
}

/// Runs workload `id` for `seconds` and returns the result line. With
/// `trace` the time is split between an untraced and a traced pass, and
/// the per-layer replays follow.
pub fn run(id: WorkloadId, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let host = Host::detect(id, seed);
    println!("{}", host.to_json());
    let pass_seconds = if trace { seconds / 2.0 } else { seconds };
    let plain = run_pass(id, seed, &host, pass_seconds, false);
    print_pass("untraced", &plain);
    let traced = trace.then(|| run_pass(id, seed, &host, pass_seconds, true));
    if let Some(t) = &traced {
        print_pass("traced", t);
    }

    // Output checks, outside every timed path.
    let w = Workload::generate(id, seed, pass_seconds / SEGMENTS as f64);
    let passes: Vec<&Pass> = std::iter::once(&plain).chain(&traced).collect();
    let requests = checked_requests(&w, &passes);
    let reference = drive::reference(&w, host.pool_threads, &requests);
    let mut checks = Checks::default();
    check_pass(&reference, &plain, "untraced", &mut checks);
    if let Some(t) = &traced {
        check_pass(&reference, t, "traced", &mut checks);
    }
    spot_check(&w, &requests, &reference, &mut checks);
    let (mut attempted, mut failed) = plain.attempted_failed();

    let metrics = match &traced {
        Some(traced) => {
            let (a, f) = traced.attempted_failed();
            attempted += a;
            failed += f;
            let values = layers::measure(&w, &host, &plain, traced, &mut checks);
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = values.iter().find(|(name, _)| *name == m.name).map_or_else(
                        || panic!("layer metric {} not measured", m.name),
                        |&(_, v)| v,
                    );
                    (m.name, m.unit, v)
                })
                .collect()
        }
        None => {
            let e = plain.e2e;
            let setup: Vec<f64> = plain.segments.iter().map(|s| s.setup_s).collect();
            let values = [
                e.qps,
                e.p50_us,
                e.p90_us,
                e.slo_share,
                e.goodput_qps,
                stats::median(&setup),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, m.unit, v))
                .collect()
        }
    };
    RunResult {
        correct: checks.failures.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of every workload, untraced and traced: all output
    /// checks pass and exactly the catalogue's metrics are reported.
    #[test]
    fn every_workload_runs_correctly_at_tiny_size() {
        for id in WorkloadId::ALL {
            for trace in [false, true] {
                let r = run(id, 5, 0.2, trace);
                assert!(
                    r.correct,
                    "{} trace {trace}: output check failed",
                    id.name()
                );
                assert_eq!(r.failed, 0, "{}", id.name());
                assert!(r.attempted > 0);
                let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
                    .iter()
                    .map(|m| m.name)
                    .collect();
                let got: Vec<&str> = r.metrics.iter().map(|(name, _, _)| *name).collect();
                assert_eq!(got, want);
                assert!(r.to_json().starts_with("{\"correct\": true, "));
            }
        }
    }
}
