//! The twoview benchmark: three seeded workloads run through the public
//! API, timed end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path tvbench/Cargo.toml -- \
//!     --workload <paper-corpus|sparse-cells|session-replay> \
//!     --seed <n> --seconds <s> --trace <0|1> [--write-golden]
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics, each with its unit. See
//! `tvbench/README.md` for the workloads and what each metric means.

mod batch;
mod check;
mod heap;
mod host;
mod metrics;
mod probe;
mod run;
#[cfg(test)]
mod selftest;
mod session;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use check::{Fingerprints, Tally};
use run::{PassTrace, Samples};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Threads of the engine's worker pool (`EngineBuilder::threads` and the
/// fit configs).
pub const POOL_THREADS: usize = 2;
/// Job executors per engine (the engine's default).
pub const JOB_EXECUTORS: usize = 2;
/// Closed-loop clients on `session-replay`.
pub const CLIENTS: usize = 2;
/// Share of a run's time spent repeating set-up between passes;
/// `setup_s` is the median of all set-ups. Spread over the run, they see
/// the same stretch of host time as the passes, where set-ups run back to
/// back at the start would see a few seconds of it.
const SETUP_SHARE: f64 = 0.08;
/// Set-ups per run at least.
const SETUP_MIN_REPS: usize = 5;

pub const WORKLOADS: [&str; 3] = ["paper-corpus", "sparse-cells", "session-replay"];

/// Input size: the benchmark's, or a tiny one for the self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub tiny: bool,
}

impl Scale {
    /// Rows to generate where the benchmark generates `rows`.
    pub fn rows(self, rows: usize) -> usize {
        if self.tiny {
            (rows / 10).clamp(60, 400)
        } else {
            rows
        }
    }
}

/// SplitMix64 of `base` and `seed`: the per-dataset generator seed.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    let mut z = base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The state one run (or one client thread) accumulates.
pub struct Ctx {
    /// Whether the current pass is traced (its layer samples are kept).
    pub traced: bool,
    pub tally: Tally,
    pub fps: Fingerprints,
    pub samples: Samples,
}

impl Ctx {
    pub fn new(traced: bool) -> Ctx {
        Ctx {
            traced,
            tally: Tally::default(),
            fps: Fingerprints::default(),
            samples: Samples::default(),
        }
    }
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub write_golden: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale { tiny: false },
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                };
            }
            "--write-golden" => o.write_golden = true,
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            o.workload
        ));
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(o)
}

/// Working space for one run's inputs, under the checkout and removed
/// when the run ends.
fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".tvbench_work")
}

enum Prepared {
    Batch(Vec<batch::Item>),
    Session(Box<session::Prepared>),
}

fn setup(o: &Options, dir: &std::path::Path, ctx: &mut Ctx) -> Result<Prepared, String> {
    let io = |e: std::io::Error| e.to_string();
    Ok(match o.workload.as_str() {
        "paper-corpus" => {
            Prepared::Batch(batch::setup_paper_corpus(o.seed, o.scale, dir).map_err(io)?)
        }
        "sparse-cells" => {
            Prepared::Batch(batch::setup_sparse_cells(o.seed, o.scale, dir).map_err(io)?)
        }
        _ => Prepared::Session(Box::new(session::setup(o.seed, o.scale, dir, ctx)?)),
    })
}

/// What a finished run reports.
pub struct Outcome {
    pub tally: Tally,
    pub values: metrics::Values,
    pub fingerprints: String,
}

/// Runs one workload: set-up, then passes until the time is spent
/// (alternating untraced and traced passes when tracing, with set-up
/// repeated between them), then the probes, then the checks against the
/// golden fingerprints.
pub fn run_workload(o: &Options) -> Result<Outcome, String> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = work_root().join(format!(
        "{}-{}-{}",
        o.workload,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(o, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn timed_setup(o: &Options, dir: &std::path::Path, ctx: &mut Ctx) -> Result<Prepared, String> {
    let start = Instant::now();
    let prepared = setup(o, dir, ctx)?;
    ctx.samples.setup_s.push(start.elapsed().as_secs_f64());
    Ok(prepared)
}

/// A repeated set-up, into `dir` apart from the inputs the passes read.
fn repeat_setup(o: &Options, dir: &std::path::Path, ctx: &mut Ctx) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    timed_setup(o, dir, ctx).map(drop)
}

fn run_in(o: &Options, dir: &std::path::Path) -> Result<Outcome, String> {
    trace::disable();
    let mut ctx = Ctx::new(false);
    let run_start = Instant::now();
    let prepared = timed_setup(o, dir, &mut ctx)?;
    let again = dir.join("again");

    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let min_passes = if o.trace { 2 } else { 1 };
    let mut trace_text = String::new();
    for n in 0u64.. {
        ctx.traced = o.trace && n % 2 == 1;
        let capture = ctx.traced.then(trace::Capture::start);
        heap::reset_peak();
        let (secs, mined) = match &prepared {
            Prepared::Batch(items) => batch::pass(items, &mut ctx),
            // Traced and untraced sessions take the same turns on the
            // instances.
            Prepared::Session(p) => session::session(p, &mut ctx, if o.trace { n / 2 } else { n }),
        };
        ctx.samples.pass_peak_heap_mb.push(heap::peak_mb());
        if let Some(capture) = capture {
            let text = capture.stop();
            let spans = trace::breakdown(&trace::parse(&text));
            ctx.samples.layers.passes.push(PassTrace { spans, mined });
            trace_text.push_str(&text);
        }
        longest = longest.max(Duration::from_secs_f64(secs));
        if n + 1 >= min_passes && start.elapsed() + longest > budget {
            break;
        }
        ctx.traced = false;
        while ctx.samples.setup_s.iter().sum::<f64>()
            < SETUP_SHARE * run_start.elapsed().as_secs_f64()
        {
            repeat_setup(o, &again, &mut ctx)?;
        }
    }
    ctx.traced = false;
    while ctx.samples.setup_s.len() < SETUP_MIN_REPS {
        repeat_setup(o, &again, &mut ctx)?;
    }
    if o.trace {
        if let Prepared::Batch(items) = &prepared {
            batch::probe(items, &mut ctx);
        }
    }

    let fingerprints = if o.scale.tiny {
        "not_measured".to_string()
    } else if o.write_golden {
        let path = check::write_golden(&o.workload, o.seed, &ctx.fps)
            .map_err(|e| format!("write golden: {e}"))?;
        format!("written to {}", path.display())
    } else {
        check::verify_golden(&o.workload, o.seed, &ctx.fps, &mut ctx.tally)
    };

    let values = if o.trace {
        let path = work_root().join(format!("trace-{}-seed{}.jsonl", o.workload, o.seed));
        if let Err(e) = std::fs::write(&path, &trace_text) {
            eprintln!("trace not written to {}: {e}", path.display());
        }
        run::per_layer(&ctx.samples)
    } else {
        run::end_to_end(&ctx.samples, ctx.tally.attempted, ctx.tally.failed)
    };
    Ok(Outcome {
        tally: ctx.tally,
        values,
        fingerprints,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&o) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] = if o.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let t = outcome.tally;
    let line = match metrics::result_line(
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        declared,
        &outcome.values,
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        host::provenance_line(&o.workload, o.seed, o.trace, o.seconds)
    );
    println!("{{\"fingerprints\": \"{}\"}}", outcome.fingerprints);
    println!("{line}");
    ExitCode::SUCCESS
}
