//! What every workload shares: timing one engine job, the samples a run
//! collects, and turning them into the printed metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use twoview::prelude::{JobError, JobHandle};
use twoview::runtime::obs;

use crate::metrics::{self, Values};
use crate::stats::{gmean, median, quantile};
use crate::trace::{Breakdown, LAYERS};

/// One engine job, timed from submit to result.
pub struct JobOut<T> {
    pub result: Result<T, JobError>,
    pub start: Instant,
    pub end: Instant,
    /// Time in the queue before an executor picked the job up.
    pub wait: Duration,
    /// Time the job body ran.
    pub run: Duration,
}

impl<T> JobOut<T> {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    pub fn run_ms(&self) -> f64 {
        self.run.as_secs_f64() * 1e3
    }
}

/// Submits a job and waits for its result, in a `bench.job` span.
pub fn job<T>(submit: impl FnOnce() -> JobHandle<T>) -> JobOut<T> {
    let span = obs::span("bench.job");
    let start = Instant::now();
    let handle = submit();
    handle.wait();
    let timings = handle.timings();
    let result = handle.join();
    let end = Instant::now();
    drop(span);
    JobOut {
        result,
        start,
        end,
        wait: timings.queue_wait.unwrap_or_default(),
        run: timings.run.unwrap_or_default(),
    }
}

/// Adds a job's `JobHandle::timings` to the layer samples.
pub fn note_timings<T>(layers: &mut LayerSamples, out: &JobOut<T>) {
    layers.queue_wait_ms.push(out.wait.as_secs_f64() * 1e3);
    layers.run_ms.push(out.run_ms());
}

pub fn ms_between(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// What the engines of one pass (or session) report about mining.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mined {
    /// `EngineStats::{build_mine_ms + fit_mine_ms}`, summed.
    pub mine_ms: f64,
    pub candidates: f64,
}

/// One traced pass: its span breakdown and what its engines mined.
pub struct PassTrace {
    pub spans: Breakdown,
    pub mined: Mined,
}

/// Per-layer samples, collected from traced passes and the probes.
#[derive(Default)]
pub struct LayerSamples {
    pub passes: Vec<PassTrace>,
    pub translate_ms: Vec<f64>,
    pub evaluate_ms: Vec<f64>,
    pub predict_us_per_row: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub persist_bytes: f64,
    // Probe results (once per dataset instance per run).
    pub tidset_dense: u64,
    pub tidset_sparse: u64,
    pub tidset_runs: u64,
    pub tidset_bytes: u64,
    pub refresh_ns: f64,
    pub refresh_cands: u64,
    pub select_iterations: u64,
    pub select_refreshes: u64,
    pub select_rub_prunes: u64,
    pub select_bound_maintain_ms: f64,
}

/// Everything one run measures.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Wall time of untraced passes (sessions on `session-replay`).
    pub pass_s: Vec<f64>,
    /// Wall time of traced passes.
    pub traced_pass_s: Vec<f64>,
    /// Most heap bytes held during each pass, in MiB.
    pub pass_peak_heap_mb: Vec<f64>,
    /// Time to model per (dataset instance, algorithm): the unit's time to
    /// a ready engine plus the fit.
    pub model_ms: BTreeMap<String, Vec<f64>>,
    /// Fit latency per configuration (dataset and algorithm on the batch
    /// workloads, fit config on `session-replay`), all instances pooled.
    pub fit_ms: BTreeMap<String, Vec<f64>>,
    /// Query latency per kind of query (and dataset on the batch
    /// workloads), all instances pooled.
    pub query_ms: BTreeMap<String, Vec<f64>>,
    /// Time to a ready engine per dataset.
    pub restart_ms: BTreeMap<String, Vec<f64>>,
    /// Wall time of each unit of an untraced pass (a dataset instance's
    /// pipeline on the batch workloads, the session on `session-replay`).
    /// `corpus_s` adds up the units' medians: each median picks the
    /// typical host state, where a pass total averages whatever states the
    /// pass ran through.
    pub unit_s: BTreeMap<String, Vec<f64>>,
    /// Time each unit had an engine job outstanding: the sum of its job
    /// latencies on the batch workloads (one job at a time), the clients'
    /// phase on `session-replay`.
    pub unit_jobs_s: BTreeMap<String, Vec<f64>>,
    /// Engine jobs one unit runs.
    pub unit_jobs: BTreeMap<String, u64>,
    pub layers: LayerSamples,
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn medians_gmean(groups: &BTreeMap<String, Vec<f64>>) -> f64 {
    let meds: Vec<f64> = groups.values().filter_map(|v| median(v)).collect();
    gmean(&meds).unwrap_or(0.0)
}

/// The geometric mean over groups of each group's `q`-quantile. A quantile
/// pooled over groups as unlike as a 20 ms and a 600 ms fit falls in the
/// gap between them and jumps with small shifts in either; per group it
/// describes the typical configuration.
fn grouped_quantile(groups: &BTreeMap<String, Vec<f64>>, q: f64) -> f64 {
    let per_group: Vec<f64> = groups.values().filter_map(|v| quantile(v, q)).collect();
    gmean(&per_group).unwrap_or(0.0)
}

/// Appends a sample to a keyed group.
pub fn add(groups: &mut BTreeMap<String, Vec<f64>>, key: String, value: f64) {
    groups.entry(key).or_default().push(value);
}

fn sum_of_medians(groups: &BTreeMap<String, Vec<f64>>) -> f64 {
    groups.values().map(|v| med(v)).sum()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(s: &Samples, attempted: u64, failed: u64) -> Values {
    let mut v = Values::default();
    v.set("setup_s", med(&s.setup_s));
    v.set("peak_heap_mb", med(&s.pass_peak_heap_mb));
    v.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    v.set("corpus_s", sum_of_medians(&s.unit_s));
    v.set("model_ms_gmean", medians_gmean(&s.model_ms));
    v.set("query_ms_p50", grouped_quantile(&s.query_ms, 0.5));
    v.set("query_ms_p90", grouped_quantile(&s.query_ms, 0.9));
    v.set("fit_ms_p50", grouped_quantile(&s.fit_ms, 0.5));
    v.set("fit_ms_p90", grouped_quantile(&s.fit_ms, 0.9));
    let busy_s = sum_of_medians(&s.unit_jobs_s);
    v.set(
        "jobs_per_s",
        if busy_s > 0.0 {
            s.unit_jobs.values().sum::<u64>() as f64 / busy_s
        } else {
            0.0
        },
    );
    v.set("restart_ms", medians_gmean(&s.restart_ms));
    v
}

/// The per-layer metrics of a traced run.
pub fn per_layer(s: &Samples) -> Values {
    let l = &s.layers;
    let mut v = Values::default();
    let pass = |f: &dyn Fn(&PassTrace) -> f64| med(&l.passes.iter().map(f).collect::<Vec<_>>());
    let span = |name: &'static str| pass(&|p: &PassTrace| p.spans.total(name));
    v.set("data.io.read_ms", span("data.read"));
    v.set("data.tidset.dense", l.tidset_dense as f64);
    v.set("data.tidset.sparse", l.tidset_sparse as f64);
    v.set("data.tidset.runs", l.tidset_runs as f64);
    v.set("data.tidset.bytes", l.tidset_bytes as f64);
    let mine_ms = pass(&|p| p.mined.mine_ms);
    let candidates = pass(&|p| p.mined.candidates);
    v.set("mining.mine_ms", mine_ms);
    v.set("mining.candidates", candidates);
    v.set(
        "mining.candidates_per_s",
        if mine_ms > 0.0 {
            candidates / (mine_ms / 1e3)
        } else {
            0.0
        },
    );
    v.set(
        "cover.refresh_ns_per_cand",
        if l.refresh_cands > 0 {
            l.refresh_ns / l.refresh_cands as f64
        } else {
            0.0
        },
    );
    v.set("select.fit_ms", pass(&|p| p.spans.fit("core.select")));
    v.set("select.iterations", l.select_iterations as f64);
    v.set("select.refreshes", l.select_refreshes as f64);
    v.set("select.rub_prunes", l.select_rub_prunes as f64);
    let decisions = l.select_rub_prunes + l.select_refreshes;
    v.set(
        "select.prune_ratio",
        if decisions > 0 {
            l.select_rub_prunes as f64 / decisions as f64
        } else {
            0.0
        },
    );
    v.set("select.bound_maintain_ms", l.select_bound_maintain_ms);
    v.set("greedy.fit_ms", pass(&|p| p.spans.fit("core.greedy")));
    v.set("exact.fit_ms", pass(&|p| p.spans.fit("core.exact")));
    v.set("translate.ms", med(&l.translate_ms));
    v.set("predict.us_per_row", med(&l.predict_us_per_row));
    v.set("evaluate.ms", med(&l.evaluate_ms));
    v.set(
        "jobs.queue_wait_ms_p50",
        quantile(&l.queue_wait_ms, 0.5).unwrap_or(0.0),
    );
    v.set(
        "jobs.queue_wait_ms_p99",
        quantile(&l.queue_wait_ms, 0.99).unwrap_or(0.0),
    );
    v.set("jobs.run_ms_p50", med(&l.run_ms));
    v.set("persist.load_ms", span("persist.load"));
    v.set("persist.save_ms", span("persist.save"));
    v.set("persist.bytes", l.persist_bytes);
    v.set("table_io.write_ms", span("table_io.write"));

    for layer in LAYERS {
        if let Some(name) = metrics::self_metric(layer) {
            v.set(
                name,
                pass(&|p| p.spans.self_ms.get(layer).copied().unwrap_or(0.0)),
            );
        }
    }
    v.set("residual_ms", pass(&|p| p.spans.residual_ms));
    let untraced = med(&s.pass_s);
    v.set(
        "trace_overhead_pct",
        if untraced > 0.0 {
            (med(&s.traced_pass_s) - untraced) / untraced * 100.0
        } else {
            0.0
        },
    );
    v
}
