//! The benchmark's metric catalogue — the single source of the names,
//! units, directions and bounds in `BENCHMARK.json` — and the JSON
//! rendering of that file.

use crate::workload::WorkloadId;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction, and for end-to-end metrics the
/// share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees, from the untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("qps", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p90_us", "us", Lower, 0.25),
    e2e("slo_share", "share", Higher, 0.05),
    e2e("overload_goodput_qps", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The `*_us` layer times, each with the metric that reports it as a
/// share of the mean per-query time.
pub const TIMED_LAYERS: &[(&str, &str)] = &[
    ("serve.admit_us", "serve.admit_us.share"),
    ("serve.overhead_us", "serve.overhead_us.share"),
    ("serve.turnaround_p99_us", "serve.turnaround_p99_us.share"),
    ("serve.gen_late_p99_us", "serve.gen_late_p99_us.share"),
    (
        "serve.overload_gen_late_p99_us",
        "serve.overload_gen_late_p99_us.share",
    ),
    ("session.submit_us", "session.submit_us.share"),
    ("network.build_us", "network.build_us.share"),
    ("kernel.solve_us", "kernel.solve_us.share"),
    ("refine.us", "refine.us.share"),
];

/// The traced run's per-layer metrics (every workload reports all of
/// them; a layer off the workload's path reads 0).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("serve.admit_us", "us", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.turnaround_p99_us", "us", Lower),
    layer("serve.gen_late_p99_us", "us", Lower),
    layer("serve.overload_gen_late_p99_us", "us", Lower),
    layer("serve.reject_share.queue_full", "share", Lower),
    layer("serve.reject_share.shed", "share", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    layer("engine.fused_share", "share", Higher),
    layer("engine.lane_speedup", "ratio", Higher),
    layer("session.submit_us", "us", Lower),
    layer("session.cache_hit_rate", "share", Higher),
    layer("session.delta_share", "share", Higher),
    layer("session.delta_fallback_share", "share", Lower),
    layer("network.build_us", "us", Lower),
    layer("network.edge_slots", "count", Lower),
    layer("kernel.solve_us", "us", Lower),
    layer("kernel.probes", "count", Lower),
    layer("kernel.pushes", "count", Lower),
    layer("kernel.relabels", "count", Lower),
    layer("kernel.pushes_per_us", "1/us", Higher),
    layer("kernel.par_vs_seq", "ratio", Higher),
    layer("refine.us", "us", Lower),
    layer("refine.cycles", "count", Lower),
    layer("fault.epoch_change_share", "share", Lower),
    layer("fault.errors", "count", Lower),
    layer("workspace.alloc_events", "count", Lower),
    layer("per_query_us", "us", Lower),
    layer("serve.admit_us.share", "share", Lower),
    layer("serve.overhead_us.share", "share", Lower),
    layer("serve.turnaround_p99_us.share", "share", Lower),
    layer("serve.gen_late_p99_us.share", "share", Lower),
    layer("serve.overload_gen_late_p99_us.share", "share", Lower),
    layer("session.submit_us.share", "share", Lower),
    layer("network.build_us.share", "share", Lower),
    layer("kernel.solve_us.share", "share", Lower),
    layer("refine.us.share", "share", Lower),
    layer("unattributed_us", "us", Lower),
    layer("unattributed.share", "share", Lower),
    layer("trace_overhead.qps", "1/s", Higher),
    layer("trace_overhead.p50_us", "us", Lower),
    layer("trace_overhead.p90_us", "us", Lower),
    layer("trace_overhead.slo_share", "share", Higher),
    layer("trace_overhead.overload_goodput_qps", "1/s", Higher),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The committed `BENCHMARK.json`, rendered from the catalogue.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map(|b| format!(", \"bound\": {b}"))
            .unwrap_or_default();
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.name()
        )
    };
    let list = |ms: &[MetricSpec]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = WorkloadId::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(END_TO_END),
        list(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `-- --print-spec`"
        );
    }

    #[test]
    fn names_are_unique_and_every_timed_layer_has_a_share() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for (layer, share) in TIMED_LAYERS {
            assert_eq!(*share, format!("{layer}.share"));
            assert!(PER_LAYER.iter().any(|m| m.name == *layer), "{layer}");
            assert!(PER_LAYER.iter().any(|m| m.name == *share), "{share}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}
