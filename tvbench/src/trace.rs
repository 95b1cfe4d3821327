//! Traced passes through the program's own span layer,
//! `twoview::runtime::obs`.
//!
//! The benchmark opens `obs` spans around its calls into each layer
//! (`data.read`, `engine.build`, `bench.job`, `table_io.*`, `persist.*`)
//! and under them the program records its own (`job.run`, `select.run`,
//! `greedy.run`, `exact.search`, `engine.build.mine`, `mine.closed`, ...).
//! A traced pass installs an in-memory sink ([`Capture`]), and once the
//! pass ends its records are parsed and broken down by layer
//! ([`breakdown`]). The raw JSON lines are kept and written out at the end
//! of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use twoview::runtime::obs;

/// The layers self time is reported for.
pub const LAYERS: [&str; 9] = [
    "data",
    "mining",
    "core.select",
    "core.greedy",
    "core.exact",
    "core.translate",
    "core.persist",
    "core.table_io",
    "runtime.jobs",
];

/// The layer a span is charged to, by name; `None` for the benchmark's
/// structure spans, for `job.run` (which takes its job's layer, see
/// [`breakdown`]) and for names not listed, which take their parent's
/// layer.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "data.read" => "data",
        "engine.build" | "engine.build.mine" | "engine.cache.warm" | "engine.fit.mine"
        | "mine.closed" | "mine.frequent" => "mining",
        "select.run" => "core.select",
        "greedy.run" => "core.greedy",
        "exact.search" => "core.exact",
        "bench.job" | "engine.drop" => "runtime.jobs",
        "persist.load" | "persist.save" => "core.persist",
        "table_io.read" | "table_io.write" => "core.table_io",
        _ => return None,
    })
}

/// The spans a thread's span tree may start from: the benchmark's
/// structure (a pass or session, and its clients) and the engine's jobs
/// on the executors. Any other top-level span was opened by a worker
/// helping an open span in parallel; its time lies within that span's,
/// so it is not counted again.
const ROOTS: [&str; 4] = ["bench.pass", "bench.session", "bench.client", "job.run"];

/// A sink shared with `obs`; the bytes of one traced pass.
#[derive(Clone, Default)]
struct Memory(Arc<Mutex<Vec<u8>>>);

impl Memory {
    fn lock(&self) -> MutexGuard<'_, Vec<u8>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Write for Memory {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One process-wide sink may be installed at a time.
static CAPTURING: Mutex<()> = Mutex::new(());

/// Records every `obs` span of the process in memory while it lives.
pub struct Capture {
    memory: Memory,
    _only: MutexGuard<'static, ()>,
}

impl Capture {
    pub fn start() -> Capture {
        let only = CAPTURING.lock().unwrap_or_else(PoisonError::into_inner);
        let memory = Memory::default();
        obs::trace_to_writer(Box::new(memory.clone()));
        Capture {
            memory,
            _only: only,
        }
    }

    /// Uninstalls the sink and returns what it recorded. Executor threads
    /// drain their records before a job's result is handed back, so every
    /// span of a finished pass is in.
    pub fn stop(self) -> String {
        obs::trace_off();
        let bytes = std::mem::take(&mut *self.memory.lock());
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Turns tracing off for the process, overriding `TWOVIEW_TRACE`: only a
/// [`Capture`] records spans.
pub fn disable() {
    obs::trace_off();
}

/// One span record of the `obs` trace schema.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

fn number(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: &str = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// The span records of a trace (events are skipped).
pub fn parse(text: &str) -> Vec<Record> {
    text.lines()
        .filter(|l| l.starts_with("{\"kind\":\"span\""))
        .filter_map(|l| {
            let at = l.find("\"name\":\"")? + 8;
            let name = &l[at..at + l[at..].find('"')?];
            Some(Record {
                id: number(l, "id")?,
                parent: number(l, "parent")?,
                name: name.to_string(),
                start_us: number(l, "start_us")?,
                dur_us: number(l, "dur_us")?,
            })
        })
        .collect()
}

/// What one traced pass spent, from its records.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Summed duration per span name, in ms.
    pub total_ms: BTreeMap<String, f64>,
    /// Self time per layer, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Run time of the pass's jobs (`job.run`) per layer, in ms: the fits
    /// by solver, the queries as `core.translate`.
    pub fit_ms: BTreeMap<&'static str, f64>,
    /// Wall time of the pass span during which no layer span was open.
    pub residual_ms: f64,
}

impl Breakdown {
    pub fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn fit(&self, layer: &str) -> f64 {
        self.fit_ms.get(layer).copied().unwrap_or(0.0)
    }
}

/// Breaks one pass's records down by layer. A span's self time is its
/// duration minus its children's.
///
/// Jobs cross threads: a `bench.job` span (submit to result, on the
/// caller) holds its `job.run` (on an executor) in time but not as a
/// child, so `runtime.jobs` is charged the callers' job time minus the
/// executors' run time, which is queueing and hand-off. A `job.run` with a
/// solver span under it is a fit, and all its run time goes to the
/// solver's layer, including the time it waits for pool workers; one with
/// no span under it ran a query (the engine's `translate`, `predict` and
/// `evaluate` jobs open none), so its time is `core.translate`.
///
/// Parallel clients' spans overlap, so the residual subtracts the union
/// of the layer spans, not their sum.
pub fn breakdown(records: &[Record]) -> Breakdown {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        children.entry(r.parent).or_default().push(i);
    }
    let by_id: BTreeMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let kids = |r: &Record| children.get(&r.id).map(Vec::as_slice).unwrap_or(&[]);
    // The layer a span is charged to, or `None` if it is not counted.
    let charge = |i: usize| -> Option<&'static str> {
        let mut at = i;
        let mut layer = None;
        loop {
            let r = &records[at];
            if r.name == "job.run" {
                let solver = kids(r).iter().find_map(|&k| layer_of(&records[k].name));
                layer = layer.or(Some(solver.unwrap_or("core.translate")));
            } else {
                layer = layer.or(layer_of(&r.name));
            }
            match by_id.get(&r.parent) {
                Some(&p) => at = p,
                None => return layer.filter(|_| ROOTS.contains(&r.name.as_str())),
            }
        }
    };

    let mut b = Breakdown::default();
    let mut intervals = Vec::new();
    let mut runs_us = 0;
    let mut root_us = 0;
    for (i, r) in records.iter().enumerate() {
        *b.total_ms.entry(r.name.clone()).or_default() += r.dur_us as f64 / 1e3;
        match r.name.as_str() {
            "bench.pass" | "bench.session" => root_us += r.dur_us,
            "job.run" => runs_us += r.dur_us,
            _ => {}
        }
        let Some(layer) = charge(i) else { continue };
        if r.name == "job.run" {
            *b.fit_ms.entry(layer).or_default() += r.dur_us as f64 / 1e3;
        }
        let inner: u64 = kids(r).iter().map(|&k| records[k].dur_us).sum();
        *b.self_ms.entry(layer).or_default() += r.dur_us.saturating_sub(inner) as f64 / 1e3;
        intervals.push((r.start_us, r.start_us + r.dur_us));
    }
    if let Some(jobs) = b.self_ms.get_mut("runtime.jobs") {
        *jobs = (*jobs - runs_us as f64 / 1e3).max(0.0);
    }
    b.residual_ms = root_us.saturating_sub(union_len(&mut intervals)) as f64 / 1e3;
    b
}

/// Total length covered by a set of intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(id: u64, parent: u64, name: &str, start_ms: u64, end_ms: u64) -> String {
        format!(
            "{{\"kind\":\"span\",\"id\":{id},\"parent\":{parent},\"thread\":1,\"name\":\"{name}\",\"start_us\":{},\"dur_us\":{},\"fields\":{{\"k\":1}}}}\n",
            start_ms * 1000,
            (end_ms - start_ms) * 1000
        )
    }

    #[test]
    fn self_time_follows_the_layers_and_jobs_cross_threads() {
        let text = [
            line(1, 0, "bench.session", 0, 100),
            line(2, 1, "data.read", 0, 10),
            line(3, 1, "bench.client", 10, 90),
            // A fit: 30 ms on the caller, 25 ms on an executor (a root there).
            line(4, 3, "bench.job", 10, 40),
            line(5, 0, "job.run", 12, 37),
            line(6, 5, "select.run", 13, 36),
            line(7, 6, "select.round", 14, 20),
            // A query from another client, overlapping in 35..50.
            line(12, 0, "bench.client", 30, 60),
            line(8, 12, "bench.job", 35, 50),
            line(9, 0, "job.run", 40, 49),
            // A pool worker helping the fit: not counted again.
            line(11, 0, "select.run", 20, 30),
            "{\"kind\":\"event\",\"id\":10,\"parent\":5,\"thread\":1,\"name\":\"job.retry\",\"start_us\":1}\n".to_string(),
        ]
        .concat();
        let records = parse(&text);
        assert_eq!(records.len(), 11);
        let b = breakdown(&records);
        assert_eq!(b.self_ms["data"], 10.0);
        // The fit's whole run, with the unlisted span under it.
        assert_eq!(b.self_ms["core.select"], 25.0);
        assert_eq!(b.fit("core.select"), 25.0);
        assert_eq!(b.self_ms["core.translate"], 9.0);
        // Callers 30 + 15, executor runs 25 + 9.
        assert_eq!(b.self_ms["runtime.jobs"], 45.0 - 34.0);
        assert_eq!(b.total("select.run"), 33.0);
        // Covered: 0..10 and 10..50 → 50 ms of 100.
        assert_eq!(b.residual_ms, 50.0);
    }
}
