//! The serving workload, `session-replay`: warm restarts of an engine
//! over the Crime analogue, with two closed-loop clients replaying a
//! fixed mix of interactive queries and cache-served batch fits.
//!
//! Set-up generates the data, mines it once, saves the engine snapshot,
//! fits the reference models and answers the reference queries. Each
//! session then reads the `.2v` file and the served rules, restarts the
//! engine with `Engine::load_snapshot`, replays the clients' scripts,
//! and ends with `save_snapshot`. Every answer is checked against the
//! set-up references, and the engine's counters must show that nothing
//! was mined and exactly one snapshot was loaded.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use twoview::core::table_io;
use twoview::data::io;
use twoview::data::synthetic::generate_with_vocab;
use twoview::prelude::*;
use twoview::runtime::obs;

use crate::batch::{build_engine, note_query, QueryKind};
use crate::check::{model_fingerprint, rows_hash, same_score, table_hash};
use crate::run::{add, job, ms_between, note_timings, Mined, Samples};
use crate::{mix_seed, Ctx, Scale, CLIENTS, POOL_THREADS};

const DATASET: PaperDataset = PaperDataset::Crime;
/// Rows generated beyond the training rows, used as held-out input to
/// `predict`.
const HOLDOUT_ROWS: usize = 200;
/// Operations each client sends per session.
const OPS_PER_CLIENT: usize = 40;
/// Fixed seed of the clients' operation scripts: the `--seed` argument
/// changes the data, never the script.
const SCRIPT_SEED: u64 = 0x5e55_1011;

/// A fit the clients request, with the reference model's fingerprint.
struct FitRef {
    label: String,
    algorithm: Algorithm,
    fingerprint: String,
}

/// Generated Crime instances per run; sessions take turns on them, so the
/// run's figures average over several datasets drawn from the seed.
const INSTANCES: u64 = 6;

/// What set-up leaves for the sessions: one entry per instance.
pub struct Prepared {
    instances: Vec<Instance>,
}

/// One Crime instance's files and reference answers.
struct Instance {
    name: String,
    input: PathBuf,
    rules: PathBuf,
    snapshot: PathBuf,
    session_snapshot: PathBuf,
    holdout: [Vec<Bitmap>; 2],
    fits: Vec<FitRef>,
    table: TranslationTable,
    score: ModelScore,
    translate_hash: [u64; 2],
    predict_hash: [u64; 2],
}

fn fit_configs(base: usize) -> Vec<(String, Algorithm)> {
    let select = |k: usize, minsup: usize| {
        (
            format!("T-SELECT({k})@{minsup}"),
            Algorithm::Select(
                SelectConfig::builder()
                    .k(k)
                    .minsup(minsup)
                    .threads(POOL_THREADS)
                    .build(),
            ),
        )
    };
    let above = base + base / 2;
    vec![
        select(1, base),
        select(2, base),
        select(3, base),
        select(1, above),
        (
            format!("T-GREEDY@{base}"),
            Algorithm::Greedy(
                GreedyConfig::builder()
                    .minsup(base)
                    .threads(POOL_THREADS)
                    .build(),
            ),
        ),
    ]
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Generates every instance.
pub fn setup(seed: u64, scale: Scale, dir: &Path, ctx: &mut Ctx) -> Result<Prepared, String> {
    let instances = (0..INSTANCES)
        .map(|i| setup_instance(seed, i, scale, dir, ctx))
        .collect::<Result<_, _>>()?;
    Ok(Prepared { instances })
}

/// Generates one instance's data, mines and saves its snapshot, and
/// computes the reference answers (recorded as fingerprints too).
fn setup_instance(
    seed: u64,
    instance: u64,
    scale: Scale,
    dir: &Path,
    ctx: &mut Ctx,
) -> Result<Instance, String> {
    let name = format!("{}#{instance}", DATASET.name());
    let rows = scale.rows(DATASET.spec().n_transactions);
    let mut spec = DATASET.spec();
    spec.n_transactions = rows + HOLDOUT_ROWS;
    spec.seed = mix_seed(spec.seed, mix_seed(seed, instance));
    let vocab = DATASET.vocabulary();
    let full = generate_with_vocab(&spec, vocab.clone())
        .map_err(io_err)?
        .dataset;
    let train_rows: Vec<Vec<ItemId>> = (0..rows)
        .map(|t| full.transaction_items(t).as_slice().to_vec())
        .collect();
    let train = TwoViewDataset::from_transactions(vocab, &train_rows).with_name(DATASET.name());
    let holdout: [Vec<Bitmap>; 2] = [Side::Left, Side::Right].map(|side| {
        (rows..rows + HOLDOUT_ROWS)
            .map(|t| full.row(side, t).clone())
            .collect()
    });

    let input = dir.join(format!("crime{instance}.2v"));
    io::write_dataset(&train, File::create(&input).map_err(io_err)?).map_err(io_err)?;
    let base = DATASET.minsup_for(rows);
    let engine = build_engine(train, base).map_err(io_err)?;
    let snapshot = dir.join(format!("crime{instance}.snapshot"));
    engine.save_snapshot(&snapshot).map_err(io_err)?;

    let mut fits = Vec::new();
    let mut served = None;
    for (label, algorithm) in fit_configs(base) {
        let model = engine.fit(algorithm.clone()).join().map_err(io_err)?;
        let fingerprint = model_fingerprint(&model);
        ctx.fps.record(
            format!("{name}/{label}"),
            fingerprint.clone(),
            &mut ctx.tally,
        );
        served.get_or_insert(model);
        fits.push(FitRef {
            label,
            algorithm,
            fingerprint,
        });
    }
    let served = served.ok_or("no fit configured")?;
    let rules = dir.join(format!("crime{instance}.rules"));
    table_io::write_table(
        &served.table,
        engine.dataset().vocab(),
        File::create(&rules).map_err(io_err)?,
    )
    .map_err(io_err)?;

    let sides = [Side::Left, Side::Right];
    let mut translate_hash = [0; 2];
    let mut predict_hash = [0; 2];
    for (i, side) in sides.into_iter().enumerate() {
        let tr = engine
            .translate(served.table.clone(), side)
            .join()
            .map_err(io_err)?;
        translate_hash[i] = rows_hash(&tr);
        let pr = engine
            .predict(served.table.clone(), side, holdout[i].clone())
            .join()
            .map_err(io_err)?;
        predict_hash[i] = rows_hash(&pr);
        for (what, h) in [
            ("translate", translate_hash[i]),
            ("predict", predict_hash[i]),
        ] {
            ctx.fps.record(
                format!("{name}/served/{what}-{side:?}"),
                format!("{h:016x}"),
                &mut ctx.tally,
            );
        }
    }
    let score = engine
        .evaluate(served.table.clone())
        .join()
        .map_err(io_err)?;
    if !same_score(&score, &served.score) {
        return Err("set-up evaluate re-score differs from the fit's score".into());
    }
    Ok(Instance {
        session_snapshot: dir.join(format!("session{instance}.snapshot")),
        name,
        input,
        rules,
        snapshot,
        holdout,
        fits,
        table: served.table,
        score,
        translate_hash,
        predict_hash,
    })
}

/// One client operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Fit(usize),
    Translate(usize),
    Predict(usize),
    Evaluate,
}

/// The fixed operation script of one client: about a quarter fits, the
/// rest interactive queries.
fn script(client: usize, n_fits: usize) -> Vec<Op> {
    let mut state = mix_seed(SCRIPT_SEED, client as u64);
    (0..OPS_PER_CLIENT)
        .map(|_| {
            state = mix_seed(state, 1);
            let r = state % 100;
            let pick = (state >> 32) as usize;
            match r {
                0..=24 => Op::Fit(pick % n_fits),
                25..=54 => Op::Translate(pick % 2),
                55..=79 => Op::Predict(pick % 2),
                _ => Op::Evaluate,
            }
        })
        .collect()
}

/// One session, on the instance whose `turn` it is, in a `bench.session`
/// span. Returns its wall time in seconds and what its engine mined.
pub fn session(p: &Prepared, ctx: &mut Ctx, turn: u64) -> (f64, Mined) {
    let p = &p.instances[(turn % p.instances.len() as u64) as usize];
    let span = obs::span("bench.session");
    let start = Instant::now();

    let data = {
        let _span = obs::span("data.read");
        File::open(&p.input)
            .map_err(io_err)
            .and_then(|f| io::read_dataset(f).map_err(io_err))
    };
    let data = match data {
        Ok(d) => d,
        Err(e) => {
            ctx.tally
                .op(false, || format!("read {}: {e}", p.input.display()));
            return finish(ctx, span, start, Mined::default());
        }
    };
    ctx.tally.op(true, String::new);
    let table = {
        let _span = obs::span("table_io.read");
        File::open(&p.rules)
            .map_err(Error::from)
            .and_then(|f| table_io::read_table(data.vocab(), f))
    };
    let table_ok = table
        .as_ref()
        .is_ok_and(|t| table_hash(t) == table_hash(&p.table));
    ctx.tally.op(table_ok, || {
        format!("served rules read back wrong: {table:?}")
    });

    let t2 = Instant::now();
    let engine = {
        let _span = obs::span("persist.load");
        Engine::load_snapshot(&p.snapshot, data)
    };
    let t3 = Instant::now();
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            ctx.tally.op(false, || format!("load_snapshot: {e}"));
            return finish(ctx, span, start, Mined::default());
        }
    };
    ctx.tally.op(true, String::new);
    add(
        &mut ctx.samples.restart_ms,
        p.name.clone(),
        ms_between(t2, t3),
    );

    let ready_ms = ms_between(start, t3);
    let traced = ctx.traced;
    let outs: Vec<Ctx> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut client = Ctx::new(traced);
                    run_client(p, engine, c, &mut client, ready_ms);
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let clients_s = t3.elapsed().as_secs_f64();
    for client in outs {
        merge_client(ctx, client);
    }

    let saved = {
        let _span = obs::span("persist.save");
        engine.save_snapshot(&p.session_snapshot)
    };
    ctx.tally
        .op(saved.is_ok(), || format!("save_snapshot: {saved:?}"));
    if traced {
        ctx.samples.layers.persist_bytes = std::fs::metadata(&p.session_snapshot)
            .map(|m| m.len() as f64)
            .unwrap_or(0.0);
    }

    let stats = engine.stats();
    let mined = Mined {
        mine_ms: stats.build_mine_ms + stats.fit_mine_ms,
        candidates: stats.n_candidates as f64,
    };
    ctx.tally.op(stats.build_mine_ms == 0.0, || {
        format!(
            "session mined at build: build_mine_ms = {}",
            stats.build_mine_ms
        )
    });
    ctx.tally.op(stats.fit_mine_ms == 0.0, || {
        format!(
            "session mined in a fit: fit_mine_ms = {}",
            stats.fit_mine_ms
        )
    });
    ctx.tally.op(stats.snapshots_loaded == 1, || {
        format!("snapshots_loaded = {}, expected 1", stats.snapshots_loaded)
    });
    ctx.tally.op(stats.snapshots_rejected == 0, || {
        format!(
            "snapshots_rejected = {}, expected 0",
            stats.snapshots_rejected
        )
    });
    {
        let _span = obs::span("engine.drop");
        drop(engine);
    }
    if !traced {
        let s = &mut ctx.samples;
        add(&mut s.unit_jobs_s, "session".to_string(), clients_s);
        s.unit_jobs
            .insert("session".to_string(), (CLIENTS * OPS_PER_CLIENT) as u64);
    }
    finish(ctx, span, start, mined)
}

fn finish(ctx: &mut Ctx, span: obs::SpanGuard, start: Instant, mined: Mined) -> (f64, Mined) {
    drop(span);
    let secs = start.elapsed().as_secs_f64();
    let s = &mut ctx.samples;
    if ctx.traced {
        s.traced_pass_s.push(secs);
    } else {
        s.pass_s.push(secs);
        add(&mut s.unit_s, "session".to_string(), secs);
    }
    (secs, mined)
}

fn merge_client(ctx: &mut Ctx, client: Ctx) {
    ctx.tally.merge(client.tally);
    let (s, c): (&mut Samples, Samples) = (&mut ctx.samples, client.samples);
    for (mine, theirs) in [
        (&mut s.fit_ms, c.fit_ms),
        (&mut s.query_ms, c.query_ms),
        (&mut s.model_ms, c.model_ms),
    ] {
        for (k, v) in theirs {
            mine.entry(k).or_default().extend(v);
        }
    }
    let (l, cl) = (&mut s.layers, c.layers);
    l.translate_ms.extend(cl.translate_ms);
    l.evaluate_ms.extend(cl.evaluate_ms);
    l.predict_us_per_row.extend(cl.predict_us_per_row);
    l.queue_wait_ms.extend(cl.queue_wait_ms);
    l.run_ms.extend(cl.run_ms);
}

/// Replays client `c`'s script in a `bench.client` span. A fit's time
/// to model is `ready_ms`, the session's time to a ready engine, plus the
/// fit.
fn run_client(p: &Instance, engine: &Engine, c: usize, ctx: &mut Ctx, ready_ms: f64) {
    let _span = obs::span("bench.client");
    for op in script(c, p.fits.len()) {
        match op {
            Op::Fit(f) => {
                let fit_ref = &p.fits[f];
                let out = job(|| engine.fit(fit_ref.algorithm.clone()));
                if ctx.traced {
                    note_timings(&mut ctx.samples.layers, &out);
                }
                let ms = out.ms();
                add(&mut ctx.samples.fit_ms, fit_ref.label.clone(), ms);
                add(
                    &mut ctx.samples.model_ms,
                    format!("{}/{}", p.name, fit_ref.label),
                    ready_ms + ms,
                );
                let ok = out
                    .result
                    .as_ref()
                    .is_ok_and(|m| model_fingerprint(m) == fit_ref.fingerprint);
                ctx.tally.op(ok, || {
                    format!("fit {}: model differs from set-up's", fit_ref.label)
                });
            }
            Op::Translate(side) => {
                let s = [Side::Left, Side::Right][side];
                let out = job(|| engine.translate(p.table.clone(), s));
                let group = format!("translate-{s:?}");
                note_query(ctx, &out, QueryKind::Translate, group);
                let ok = out
                    .result
                    .as_ref()
                    .is_ok_and(|r| rows_hash(r) == p.translate_hash[side]);
                ctx.tally
                    .op(ok, || format!("translate from {s:?}: wrong answer"));
            }
            Op::Predict(side) => {
                let s = [Side::Left, Side::Right][side];
                let rows = p.holdout[side].clone();
                let n = rows.len();
                let out = job(|| engine.predict(p.table.clone(), s, rows));
                let group = format!("predict-{s:?}");
                note_query(ctx, &out, QueryKind::Predict(n), group);
                let ok = out
                    .result
                    .as_ref()
                    .is_ok_and(|r| rows_hash(r) == p.predict_hash[side]);
                ctx.tally
                    .op(ok, || format!("predict from {s:?}: wrong answer"));
            }
            Op::Evaluate => {
                let out = job(|| engine.evaluate(p.table.clone()));
                let group = "evaluate".to_string();
                note_query(ctx, &out, QueryKind::Evaluate, group);
                let ok = out.result.as_ref().is_ok_and(|s| same_score(s, &p.score));
                ctx.tally.op(ok, || {
                    "evaluate: re-score differs from the fit's".to_string()
                });
            }
        }
    }
}
