//! Golden-model ledger: the absolute model-identity check.
//!
//! Every fit below is recorded in `tests/golden_models.txt` as one line:
//! the input and fit names, a fingerprint of the input data, the rule
//! count, a fingerprint of the translation table, and the bit patterns of
//! L(T), L(C_L|T) and L(C_R|T). A refactor that claims to be
//! model-identical must leave the ledger untouched; any intended change
//! to a model must regenerate the ledger and explain the difference.
//!
//! Inputs: the 7 `PaperDataset::SMALL` analogues scaled to 200 rows, plus
//! the perfsuite `mid-dense` cell at its smoke size. Fits: SELECT(1),
//! SELECT(2), GREEDY and node-capped EXACT, all through the default
//! configuration builders.
//!
//! Regenerate with
//! `TWOVIEW_GOLDEN_BLESS=1 cargo test --release --test golden_models`.

use twoview::core::select::translator_select_candidates;
use twoview::data::corpus::PaperDataset;
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;

const LEDGER: &str = "tests/golden_models.txt";

/// Per-iteration DFS node cap for EXACT: small enough for a debug-mode
/// test run, large enough that the search does real branch-and-bound.
const EXACT_MAX_NODES: u64 = 2_000;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of the input: its shape and every row of both views.
fn data_fingerprint(data: &TwoViewDataset) -> u64 {
    let mut h = Fnv::new();
    h.u64(data.n_transactions() as u64);
    for side in [Side::Left, Side::Right] {
        for row in data.rows(side) {
            for i in row.iter() {
                h.u64(i as u64);
            }
            h.u64(u64::MAX);
        }
    }
    h.0
}

/// Fingerprint of a translation table: its rules in table order.
fn table_fingerprint(model: &TranslatorModel) -> u64 {
    let mut h = Fnv::new();
    for rule in model.table.iter() {
        for &i in rule.left.as_slice() {
            h.u64(u64::from(i));
        }
        h.u64(match rule.direction {
            Direction::Forward => 1,
            Direction::Backward => 2,
            Direction::Both => 3,
        });
        for &i in rule.right.as_slice() {
            h.u64(u64::from(i));
        }
        h.u64(u64::MAX);
    }
    h.0
}

/// The perfsuite `mid-dense` cell at its smoke size (300 rows).
fn mid_dense() -> TwoViewDataset {
    let mut structure = StructureSpec::strong(6);
    structure.occurrence = 0.25;
    let spec = SyntheticSpec {
        name: "mid-dense".into(),
        n_transactions: 300,
        n_left: 40,
        n_right: 30,
        density_left: 0.30,
        density_right: 0.30,
        structure,
        seed: 7,
    };
    synthetic::generate(&spec).expect("valid spec").dataset
}

/// One ledger input.
#[derive(Clone, Copy)]
enum Input {
    /// A `PaperDataset::SMALL` analogue at 200 rows.
    Paper(PaperDataset),
    /// The perfsuite `mid-dense` cell.
    MidDense,
}

impl Input {
    fn all() -> Vec<Input> {
        let mut out: Vec<Input> = PaperDataset::SMALL.into_iter().map(Input::Paper).collect();
        out.push(Input::MidDense);
        out
    }

    fn name(self) -> &'static str {
        match self {
            Input::Paper(ds) => ds.name(),
            Input::MidDense => "mid-dense",
        }
    }

    /// The data and the minsup its fits run at.
    fn load(self) -> (TwoViewDataset, usize) {
        match self {
            Input::Paper(ds) => (ds.generate_scaled(200).dataset, ds.minsup_for(200)),
            Input::MidDense => (mid_dense(), 30),
        }
    }
}

fn ledger_line(input: &str, fit: &str, data_fp: u64, model: &TranslatorModel) -> String {
    format!(
        "{input}\t{fit}\tdata={data_fp:016x}\trules={}\ttable={:016x}\tlt={:016x}\tlcl={:016x}\tlcr={:016x}",
        model.table.len(),
        table_fingerprint(model),
        model.score.l_table.to_bits(),
        model.score.l_correction_left.to_bits(),
        model.score.l_correction_right.to_bits(),
    )
}

/// The four fits of one input. SELECT and EXACT share one mined candidate
/// set (the closed candidates at the input's minsup, which is what
/// `translator_select` and `translator_exact_with` mine themselves).
fn input_ledger(input: Input) -> Vec<String> {
    let (name, (data, minsup)) = (input.name(), input.load());
    let data = &data;
    let data_fp = data_fingerprint(data);
    let mut mcfg = MinerConfig::builder().minsup(minsup).build();
    mcfg.max_itemsets = 2_000_000;
    let mined = mine_closed_twoview(data, &mcfg);
    assert!(!mined.truncated, "{name}: candidate mining truncated");
    let cands = &mined.candidates;
    let select = |k| SelectConfig::builder().k(k).minsup(minsup).build();
    let exact = ExactConfig::builder()
        .max_nodes(EXACT_MAX_NODES)
        .seed_minsup(Some(minsup))
        .build();
    let greedy = GreedyConfig::builder().minsup(minsup).build();
    let fits = [
        (
            "select1",
            translator_select_candidates(data, &select(1), cands),
        ),
        (
            "select2",
            translator_select_candidates(data, &select(2), cands),
        ),
        ("greedy", translator_greedy(data, &greedy)),
        ("exact_capped", translator_exact_seeded(data, &exact, cands)),
    ];
    fits.iter()
        .map(|(fit, model)| ledger_line(name, fit, data_fp, model))
        .collect()
}

/// The whole ledger, inputs fitted concurrently (one thread each) and
/// reported in input order.
fn current_ledger() -> Vec<String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = Input::all()
            .into_iter()
            .map(|input| s.spawn(move || input_ledger(input)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[test]
fn models_match_golden_ledger() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(LEDGER);
    let current = current_ledger();
    if std::env::var_os("TWOVIEW_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, current.join("\n") + "\n").expect("write ledger");
        return;
    }
    let stored = std::fs::read_to_string(&path).expect("golden ledger is committed");
    let stored: Vec<&str> = stored.lines().filter(|l| !l.is_empty()).collect();
    let mut diffs = Vec::new();
    for (i, line) in current.iter().enumerate() {
        match stored.get(i) {
            Some(s) if *s == line.as_str() => {}
            Some(s) => diffs.push(format!("- {s}\n+ {line}")),
            None => diffs.push(format!("+ {line}")),
        }
    }
    for s in stored.iter().skip(current.len()) {
        diffs.push(format!("- {s}"));
    }
    assert!(
        diffs.is_empty(),
        "{} ledger entries differ from {LEDGER}:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
