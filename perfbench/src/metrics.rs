//! The metric catalogue (names and units, as registered in
//! `BENCHMARK.json`) and the result line the benchmark prints.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics: printed by every traced run. A layer a workload does
/// not exercise reads 0 there (see `perfbench/README.md` for which layers
/// run on which workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.load_s", "s"),
    ("graph.io.load_s.spread", "ratio"),
    ("graph.io.load_mbps", "MB/s"),
    ("graph.io.checksum_ms", "ms"),
    ("graph.classify_s", "s"),
    ("core.filter.relabel_s", "s"),
    ("core.filter.relabel_s.spread", "ratio"),
    ("core.filter.alpha", "ratio"),
    ("core.filter.beta", "ratio"),
    ("core.block.partition_s", "s"),
    ("core.block.partition_s.spread", "ratio"),
    ("core.block.tasks_split", "count"),
    ("core.block.max_task_nnz", "count"),
    ("core.engine.build_s", "s"),
    ("core.engine.build_s.spread", "ratio"),
    ("core.engine.pre_s", "s"),
    ("core.engine.scatter_s", "s"),
    ("core.engine.gather_s", "s"),
    ("core.engine.post_s", "s"),
    ("core.engine.iter_ms", "ms"),
    ("core.engine.driver_s", "s"),
    ("core.engine.speedup_vs_pull", "x"),
    ("core.bins.bytes_per_iter", "bytes"),
    ("core.model.bytes_per_iter", "bytes"),
    ("core.bins.gbps", "GB/s"),
    ("core.runner.solve_s", "s"),
    ("core.runner.reentries", "count"),
    ("core.runner.reentry_s", "s"),
    ("graph.ckpt.save_ms", "ms"),
    ("graph.ckpt.load_ms", "ms"),
    ("graph.ckpt.bytes", "bytes"),
    ("graph.ckpt.checkpoints_written", "count"),
    ("graph.ckpt.checkpoint_bytes", "bytes"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("algos.top_k_ms", "ms"),
    ("baselines.pull_1lane_solve_s", "s"),
    ("serve.start_s", "s"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_p50_ms", "ms"),
    ("serve.ttfb_p99_ms", "ms"),
    ("serve.score_p50_ms", "ms"),
    ("serve.top_p50_ms", "ms"),
    ("serve.request_batches", "count"),
    ("serve.max_batch_size", "count"),
    ("serve.requests_rejected", "count"),
    ("serve.snapshot_swaps", "count"),
    ("serve.op_p99_ms", "ms"),
    ("serve.p99_limit_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.inflight_max", "count"),
    ("loadgen.busy_frac", "ratio"),
    ("loadgen.rate_per_s", "1/s"),
    ("loadgen.samples", "count"),
    ("fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.setup_accounted_frac", "ratio"),
    ("trace.solve_accounted_frac", "ratio"),
    ("trace.self.setup_s", "s"),
    ("trace.self.solve_s", "s"),
    ("trace.spans", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome counts of a run's operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that erred, were refused, answered other than 200, broke
    /// the latency limit, or disagreed with the reference.
    pub failed: u64,
}

impl Outcome {
    /// Counts one operation and whether it passed its checks.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("[check] {why}");
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the result line: every end-to-end metric when untraced, every
/// per-layer metric when traced. The run is correct when no operation
/// failed. An end-to-end metric must have been
/// measured; a per-layer metric of a layer the workload does not run reads
/// 0. A non-finite value is an error.
pub fn result_line(outcome: &Outcome, traced: bool, values: &Values) -> Result<String, String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut parts = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match values.get(name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixen_core::Json;

    fn registered(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let Json::Obj(root) = Json::parse(&text).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is not an object");
        };
        let Some((_, Json::Arr(list))) = root.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        list.iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(registered("end_to_end"), as_owned(END_TO_END));
        assert_eq!(registered("per_layer"), as_owned(PER_LAYER));
    }

    #[test]
    fn output_names_every_registered_metric() {
        let mut values = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            values.set(name, 1.5 + i as f64);
        }
        let outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for traced in [false, true] {
            let line = result_line(&outcome, traced, &values).unwrap();
            let json = Json::parse(&line).expect("result line is JSON");
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(3));
            let metrics = json.get("metrics").unwrap();
            let key = if traced { "per_layer" } else { "end_to_end" };
            for (name, unit) in registered(key) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn missing_or_non_finite_end_to_end_values_are_errors() {
        let outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(result_line(&outcome, false, &Values::default()).is_err());
        let mut values = Values::default();
        for (name, _) in END_TO_END {
            values.set(name, f64::NAN);
        }
        assert!(result_line(&outcome, false, &values).is_err());
    }

    #[test]
    fn a_mismatch_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.record(Ok(()));
        outcome.record(Err("node 3 off".into()));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert_eq!(outcome.fail_frac(), 0.5);
        let line = result_line(&outcome, true, &Values::default()).unwrap();
        assert!(line.starts_with("{\"correct\": false"));
    }
}
