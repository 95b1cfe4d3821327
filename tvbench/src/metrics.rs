//! The metrics the benchmark prints, by name and unit, and the result
//! line. `BENCHMARK.json` declares the same names and units; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ok_frac", "frac"),
    ("corpus_s", "s"),
    ("model_ms_gmean", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("fit_ms_p50", "ms"),
    ("fit_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("restart_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("data.io.read_ms", "ms"),
    ("data.tidset.dense", "count"),
    ("data.tidset.sparse", "count"),
    ("data.tidset.runs", "count"),
    ("data.tidset.bytes", "B"),
    ("mining.mine_ms", "ms"),
    ("mining.candidates", "count"),
    ("mining.candidates_per_s", "1/s"),
    ("cover.refresh_ns_per_cand", "ns"),
    ("select.fit_ms", "ms"),
    ("select.iterations", "count"),
    ("select.refreshes", "count"),
    ("select.rub_prunes", "count"),
    ("select.prune_ratio", "frac"),
    ("select.bound_maintain_ms", "ms"),
    ("greedy.fit_ms", "ms"),
    ("exact.fit_ms", "ms"),
    ("translate.ms", "ms"),
    ("predict.us_per_row", "us"),
    ("evaluate.ms", "ms"),
    ("jobs.queue_wait_ms_p50", "ms"),
    ("jobs.queue_wait_ms_p99", "ms"),
    ("jobs.run_ms_p50", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.bytes", "B"),
    ("table_io.write_ms", "ms"),
    ("data.self_ms", "ms"),
    ("mining.self_ms", "ms"),
    ("select.self_ms", "ms"),
    ("greedy.self_ms", "ms"),
    ("exact.self_ms", "ms"),
    ("translate.self_ms", "ms"),
    ("persist.self_ms", "ms"),
    ("table_io.self_ms", "ms"),
    ("jobs.self_ms", "ms"),
    ("residual_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// The `<layer>.self_ms` metric each traced layer's self time feeds.
pub fn self_metric(layer: &str) -> Option<&'static str> {
    Some(match layer {
        "data" => "data.self_ms",
        "mining" => "mining.self_ms",
        "core.select" => "select.self_ms",
        "core.greedy" => "greedy.self_ms",
        "core.exact" => "exact.self_ms",
        "core.translate" => "translate.self_ms",
        "core.persist" => "persist.self_ms",
        "core.table_io" => "table_io.self_ms",
        "runtime.jobs" => "jobs.self_ms",
        _ => return None,
    })
}

/// Metric values of one run, keyed by declared name.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that reads back to the same
        // f64, so no digit is lost.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `declared`, in declaration order. A declared metric the run did not
/// set is an error in the benchmark itself.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let v = values
            .0
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
