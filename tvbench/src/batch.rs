//! The batch workloads, `paper-corpus` and `sparse-cells`: per dataset, a
//! cold pipeline from the `.2v` file to written rules.
//!
//! Set-up generates the datasets from the seed and writes them as `.2v`
//! files. A pass then, for each dataset: reads the file, builds a cold
//! `Engine` (mining the candidates), fits each algorithm as an engine
//! job, queries each model (`evaluate`, `translate` from both sides),
//! checks it, and writes its rules with `table_io`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use twoview::core::table_io;
use twoview::data::io;
use twoview::data::synthetic::{generate_with_vocab, StructureSpec, SyntheticSpec};
use twoview::prelude::*;
use twoview::runtime::obs;

use crate::check::{model_fingerprint, rows_hash, same_score};
use crate::run::{add, job, ms_between, note_timings, JobOut, Mined};
use crate::{mix_seed, Ctx, Scale, POOL_THREADS};

/// Rows of each `paper-corpus` analogue (`PaperDataset::spec().scaled_to`).
/// The same rows serve the node-capped EXACT fits on the `SMALL` sets.
const CORPUS_ROWS: usize = 300;
/// Generated instances of each analogue per run. The pass covers all of
/// them, so one seed's unusually large instance moves the total less.
const CORPUS_INSTANCES: u64 = 2;
/// Times each model's queries are asked per pass, so each query group
/// holds enough samples a run for its p90.
const QUERY_ROUNDS: u64 = 4;
/// EXACT's node cap.
const EXACT_MAX_NODES: u64 = 200_000;

/// One dataset of a batch workload and the algorithms fitted on it.
pub struct Item {
    pub key: String,
    pub input: PathBuf,
    pub rules: PathBuf,
    pub minsup: usize,
    pub algorithms: Vec<Algorithm>,
}

fn select1(minsup: usize) -> Algorithm {
    Algorithm::Select(
        SelectConfig::builder()
            .k(1)
            .minsup(minsup)
            .threads(POOL_THREADS)
            .build(),
    )
}

fn greedy(minsup: usize) -> Algorithm {
    Algorithm::Greedy(
        GreedyConfig::builder()
            .minsup(minsup)
            .threads(POOL_THREADS)
            .build(),
    )
}

fn exact() -> Algorithm {
    Algorithm::Exact(
        ExactConfig::builder()
            .max_nodes(EXACT_MAX_NODES)
            .threads(POOL_THREADS)
            .build(),
    )
}

/// A sparse cell: the generator parameters of the perfsuite cell of the
/// same name.
struct Cell {
    name: &'static str,
    rows: usize,
    n_left: usize,
    n_right: usize,
    density: f64,
    concepts: usize,
    occurrence: f64,
    burst_len: usize,
    minsup_div: usize,
}

const CELLS: [Cell; 3] = [
    Cell {
        name: "wide-sparse",
        rows: 20000,
        n_left: 150,
        n_right: 120,
        density: 0.01,
        concepts: 10,
        occurrence: 0.02,
        burst_len: 1,
        minsup_div: 10000,
    },
    Cell {
        name: "tall-sparse",
        rows: 20000,
        n_left: 48,
        n_right: 36,
        density: 0.008,
        concepts: 8,
        occurrence: 0.02,
        burst_len: 1,
        minsup_div: 10000,
    },
    // Bursts of 16 rows and minsup n/10, not perfsuite's 48 and n/20: with
    // those the candidate count ranges from 23k to 256k across seeds
    // (SELECT 0.5 s to 19 s), and even at n/10 over 15x, so the seed
    // swamps everything else the workload measures. Here it spans ~5x.
    Cell {
        name: "clustered-runs",
        rows: 8000,
        n_left: 32,
        n_right: 24,
        density: 0.02,
        concepts: 6,
        occurrence: 0.35,
        burst_len: 16,
        minsup_div: 10,
    },
];

/// Generated instances of each sparse cell per run: the pass sums over
/// them, so one seed's outlier instance moves the total less.
const CELL_INSTANCES: u64 = 4;

fn write_input(dir: &Path, key: &str, data: &TwoViewDataset) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("{}.2v", key.replace(['#', '/'], "_")));
    io::write_dataset(data, File::create(&path)?).map_err(std::io::Error::other)?;
    Ok(path)
}

fn item(
    dir: &Path,
    key: String,
    data: &TwoViewDataset,
    minsup: usize,
    algorithms: Vec<Algorithm>,
) -> std::io::Result<Item> {
    let input = write_input(dir, &key, data)?;
    let rules = input.with_extension("rules");
    Ok(Item {
        key,
        input,
        rules,
        minsup,
        algorithms,
    })
}

/// Generates the `paper-corpus` inputs: every analogue fits SELECT(1)
/// and GREEDY; the first instance of each `SMALL` analogue also fits EXACT.
pub fn setup_paper_corpus(seed: u64, scale: Scale, dir: &Path) -> std::io::Result<Vec<Item>> {
    let rows = scale.rows(CORPUS_ROWS);
    let mut items = Vec::new();
    for instance in 0..CORPUS_INSTANCES {
        for ds in PaperDataset::ALL {
            let mut spec = ds.spec().scaled_to(rows);
            spec.seed = mix_seed(spec.seed, mix_seed(seed, instance));
            let data = generate_with_vocab(&spec, ds.vocabulary())
                .map_err(std::io::Error::other)?
                .dataset;
            let minsup = ds.minsup_for(data.n_transactions());
            let mut algorithms = vec![select1(minsup), greedy(minsup)];
            if instance == 0 && PaperDataset::SMALL.contains(&ds) {
                algorithms.push(exact());
            }
            let key = format!("{}#{instance}", ds.name());
            items.push(item(dir, key, &data, minsup, algorithms)?);
        }
    }
    Ok(items)
}

/// Generates the `sparse-cells` inputs.
pub fn setup_sparse_cells(seed: u64, scale: Scale, dir: &Path) -> std::io::Result<Vec<Item>> {
    let mut items = Vec::new();
    for cell in &CELLS {
        for instance in 0..CELL_INSTANCES {
            let rows = scale.rows(cell.rows);
            let mut structure = if cell.burst_len > 1 {
                StructureSpec::bursty(cell.concepts, cell.burst_len)
            } else {
                StructureSpec::strong(cell.concepts)
            };
            structure.occurrence = cell.occurrence;
            let spec = SyntheticSpec {
                name: cell.name.into(),
                n_transactions: rows,
                n_left: cell.n_left,
                n_right: cell.n_right,
                density_left: cell.density,
                density_right: cell.density,
                structure,
                seed: mix_seed(7, mix_seed(seed, instance)),
            };
            let data = generate_with_vocab(&spec, Vocabulary::unnamed(cell.n_left, cell.n_right))
                .map_err(std::io::Error::other)?
                .dataset;
            let minsup = (rows / cell.minsup_div).max(2);
            items.push(item(
                dir,
                format!("{}#{instance}", cell.name),
                &data,
                minsup,
                vec![select1(minsup)],
            )?);
        }
    }
    Ok(items)
}

/// The dataset or cell a key names, without its instance suffix.
fn dataset_of(key: &str) -> &str {
    key.split('#').next().unwrap_or(key)
}

fn read_input(path: &Path) -> Result<TwoViewDataset, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    io::read_dataset(file).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn build_engine(data: TwoViewDataset, minsup: usize) -> Result<Engine, Error> {
    Engine::builder()
        .dataset(data)
        .minsup(minsup)
        .threads(POOL_THREADS)
        .job_executors(crate::JOB_EXECUTORS)
        .build()
}

/// One pass over every item, in a `bench.pass` span. Returns the pass's
/// wall time in seconds and what its engines mined.
pub fn pass(items: &[Item], ctx: &mut Ctx) -> (f64, Mined) {
    let span = obs::span("bench.pass");
    let pass_start = Instant::now();
    let mut mined = Mined::default();
    for item in items {
        let start = Instant::now();
        let (jobs, jobs_s) = run_item(item, ctx, &mut mined);
        if !ctx.traced {
            let s = &mut ctx.samples;
            add(
                &mut s.unit_s,
                item.key.clone(),
                start.elapsed().as_secs_f64(),
            );
            add(&mut s.unit_jobs_s, item.key.clone(), jobs_s);
            s.unit_jobs.insert(item.key.clone(), jobs);
        }
    }
    drop(span);
    let secs = pass_start.elapsed().as_secs_f64();
    if ctx.traced {
        ctx.samples.traced_pass_s.push(secs);
    } else {
        ctx.samples.pass_s.push(secs);
    }
    (secs, mined)
}

/// Runs one item's pipeline; returns the number of engine jobs run and
/// the seconds they were outstanding.
fn run_item(item: &Item, ctx: &mut Ctx, mined: &mut Mined) -> (u64, f64) {
    let t0 = Instant::now();
    let data = {
        let _span = obs::span("data.read");
        read_input(&item.input)
    };
    let data = match data {
        Ok(d) => d,
        Err(e) => {
            ctx.tally.op(false, || format!("read {}: {e}", item.key));
            return (0, 0.0);
        }
    };
    ctx.tally.op(true, String::new);
    let engine = {
        let _span = obs::span("engine.build");
        build_engine(data, item.minsup)
    };
    let ready_ms = ms_between(t0, Instant::now());
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            ctx.tally.op(false, || format!("build {}: {e}", item.key));
            return (0, 0.0);
        }
    };
    ctx.tally.op(true, String::new);
    add(&mut ctx.samples.restart_ms, item.key.clone(), ready_ms);

    let mut jobs = 0;
    let mut jobs_ms = 0.0;
    for algorithm in &item.algorithms {
        let label = format!("{}/{}", item.key, algorithm.label());
        let fit = job(|| engine.fit(algorithm.clone()));
        jobs += 1;
        jobs_ms += fit.ms();
        if ctx.traced {
            note_timings(&mut ctx.samples.layers, &fit);
        }
        let group = format!("{}/{}", dataset_of(&item.key), algorithm.label());
        add(&mut ctx.samples.fit_ms, group, fit.ms());
        add(
            &mut ctx.samples.model_ms,
            label.clone(),
            ready_ms + fit.ms(),
        );
        let model = match fit.result {
            Ok(m) => m,
            Err(e) => {
                ctx.tally.op(false, || format!("fit {label}: {e}"));
                continue;
            }
        };
        ctx.tally.op(model.compression_pct() < 100.0, || {
            format!(
                "{label}: compression {}% is not below 100%",
                model.compression_pct()
            )
        });
        ctx.fps
            .record(label.clone(), model_fingerprint(&model), &mut ctx.tally);
        let (n, ms) = query_model(&engine, &model, &label, ctx);
        jobs += n;
        jobs_ms += ms;

        let written = {
            let _span = obs::span("table_io.write");
            File::create(&item.rules)
                .map_err(Error::from)
                .and_then(|f| table_io::write_table(&model.table, engine.dataset().vocab(), f))
        };
        ctx.tally.op(written.is_ok(), || {
            format!("write rules {label}: {written:?}")
        });
    }
    let stats = engine.stats();
    mined.mine_ms += stats.build_mine_ms + stats.fit_mine_ms;
    mined.candidates += stats.n_candidates as f64;
    {
        let _span = obs::span("engine.drop");
        drop(engine);
    }
    (jobs, jobs_ms / 1e3)
}

/// The queries users run on a fresh model, [`QUERY_ROUNDS`] times over:
/// its MDL re-score (checked bit for bit against the fit's score) and its
/// translation from each side (checked against the run's first answer and
/// the golden file). Returns the number of jobs run and their summed
/// latency in ms.
fn query_model(engine: &Engine, model: &TranslatorModel, label: &str, ctx: &mut Ctx) -> (u64, f64) {
    let group = |what: &str| format!("{}/{what}", dataset_of(label));
    let mut ms = 0.0;
    for _ in 0..QUERY_ROUNDS {
        let eval = job(|| engine.evaluate(model.table.clone()));
        ms += note_query(ctx, &eval, QueryKind::Evaluate, group("evaluate"));
        match &eval.result {
            Ok(score) => {
                ctx.tally.op(same_score(score, &model.score), || {
                    format!("{label}: evaluate re-score differs from the fit's score")
                });
            }
            Err(e) => {
                ctx.tally.op(false, || format!("evaluate {label}: {e}"));
            }
        }
        for side in [Side::Left, Side::Right] {
            let tr = job(|| engine.translate(model.table.clone(), side));
            let kind = format!("translate-{side:?}");
            ms += note_query(ctx, &tr, QueryKind::Translate, group(&kind));
            match &tr.result {
                Ok(rows) => {
                    let n = engine.dataset().n_transactions();
                    ctx.tally.op(rows.len() == n, || {
                        format!(
                            "translate {label}: {} rows for {n} transactions",
                            rows.len()
                        )
                    });
                    ctx.fps.record(
                        format!("{label}/{kind}"),
                        format!("{:016x}", rows_hash(rows)),
                        &mut ctx.tally,
                    );
                }
                Err(e) => {
                    ctx.tally.op(false, || format!("translate {label}: {e}"));
                }
            }
        }
    }
    (3 * QUERY_ROUNDS, ms)
}

#[derive(Clone, Copy)]
pub enum QueryKind {
    Evaluate,
    Translate,
    Predict(usize),
}

/// Records a query's latency (submit to result) and, on a traced pass,
/// the job's timings and its run time as the query kind's layer sample.
/// Returns the latency in ms.
pub fn note_query<T>(ctx: &mut Ctx, out: &JobOut<T>, kind: QueryKind, group: String) -> f64 {
    let ms = out.ms();
    add(&mut ctx.samples.query_ms, group, ms);
    if ctx.traced {
        let l = &mut ctx.samples.layers;
        note_timings(l, out);
        let run = out.run_ms();
        match kind {
            QueryKind::Evaluate => l.evaluate_ms.push(run),
            QueryKind::Translate => l.translate_ms.push(run),
            QueryKind::Predict(rows) => l.predict_us_per_row.push(run * 1e3 / rows.max(1) as f64),
        }
    }
    ms
}

/// The per-layer probes, run once per item after the passes and outside
/// their timing: the tidset census over the mined candidates' support
/// sets, one `CoverState::pair_gains` pass over them, and SELECT(1) with
/// its run counters (`translator_select_candidates_with_stats`), whose
/// model must equal the engine's.
pub fn probe(items: &[Item], ctx: &mut Ctx) {
    for item in items {
        let Some(cfg) = item.algorithms.iter().find_map(|a| match a {
            Algorithm::Select(c) => Some(c.clone()),
            _ => None,
        }) else {
            continue;
        };
        let Ok(data) = read_input(&item.input) else {
            ctx.tally.op(false, || format!("probe read {}", item.key));
            continue;
        };
        let Ok(engine) = build_engine(data, item.minsup) else {
            ctx.tally.op(false, || format!("probe build {}", item.key));
            continue;
        };
        crate::probe::census_and_refresh(
            engine.dataset(),
            engine.candidates(),
            &mut ctx.samples.layers,
        );
        let label = format!("{}/{}", item.key, Algorithm::Select(cfg.clone()).label());
        let fp = crate::probe::select_stats(
            engine.dataset(),
            &cfg,
            engine.candidates(),
            &mut ctx.samples.layers,
        );
        ctx.fps.record(label, fp, &mut ctx.tally);
    }
}
