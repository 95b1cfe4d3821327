//! Output checks: model fingerprints, the stored golden fingerprints, and
//! the tally of attempted and failed operations.

use std::collections::BTreeMap;
use std::path::PathBuf;

use twoview::data::prelude::*;
use twoview::prelude::{ModelScore, TranslationTable, TranslatorModel};

/// The seed whose golden fingerprints must exist: a run on it without a
/// stored file fails closed.
pub const DEFAULT_SEED: u64 = 1;

/// 64-bit FNV-1a, enough to tell outputs apart in a check.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of a list of bitmaps (a translation or prediction result).
pub fn rows_hash(rows: &[Bitmap]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        h.u64(row.len() as u64);
        for i in row.iter() {
            h.u64(i as u64);
        }
        h.u64(u64::MAX);
    }
    h.finish()
}

/// Hash of a table's rules, in table order.
pub fn table_hash(table: &TranslationTable) -> u64 {
    let mut h = Fnv::new();
    for rule in table.iter() {
        for &i in rule.left.as_slice() {
            h.u64(u64::from(i));
        }
        h.bytes(format!("{:?}", rule.direction).as_bytes());
        for &i in rule.right.as_slice() {
            h.u64(u64::from(i));
        }
        h.u64(u64::MAX);
    }
    h.finish()
}

/// A model's fingerprint: its rules plus the bit patterns of L(T) and
/// L(C|T) per side.
pub fn model_fingerprint(model: &TranslatorModel) -> String {
    format!(
        "rules={} hash={:016x} lt={:016x} lcl={:016x} lcr={:016x}",
        model.table.len(),
        table_hash(&model.table),
        model.score.l_table.to_bits(),
        model.score.l_correction_left.to_bits(),
        model.score.l_correction_right.to_bits()
    )
}

/// Whether a re-score equals the fit's score bit for bit.
pub fn same_score(a: &ModelScore, b: &ModelScore) -> bool {
    a.l_total.to_bits() == b.l_total.to_bits()
        && a.l_table.to_bits() == b.l_table.to_bits()
        && a.l_correction_left.to_bits() == b.l_correction_left.to_bits()
        && a.l_correction_right.to_bits() == b.l_correction_right.to_bits()
        && a.correction_ones == b.correction_ones
}

/// Attempted and failed operations of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Fingerprints a run produced, keyed by dataset and configuration. A key
/// seen twice must carry the same value (models are deterministic).
#[derive(Default)]
pub struct Fingerprints {
    pub map: BTreeMap<String, String>,
}

impl Fingerprints {
    pub fn record(&mut self, key: String, value: String, tally: &mut Tally) {
        match self.map.get(&key) {
            Some(prev) => {
                let same = *prev == value;
                tally.op(same, || format!("{key}: {value} differs from {prev}"));
            }
            None => {
                self.map.insert(key, value);
            }
        }
    }
}

fn golden_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.seed{seed}.txt"))
}

/// Writes the run's fingerprints as the golden file for `seed`.
pub fn write_golden(workload: &str, seed: u64, fps: &Fingerprints) -> std::io::Result<PathBuf> {
    let path = golden_path(workload, seed);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = format!("# {workload} seed {seed}: key<TAB>fingerprint\n");
    for (k, v) in &fps.map {
        text.push_str(&format!("{k}\t{v}\n"));
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Compares the run's fingerprints with the golden file for `seed`, one
/// counted operation per key. A missing file is `not_measured`; on the
/// default seed that fails the run (fail closed), on other seeds it is
/// reported and not counted.
pub fn verify_golden(workload: &str, seed: u64, fps: &Fingerprints, tally: &mut Tally) -> String {
    let path = golden_path(workload, seed);
    let Ok(text) = std::fs::read_to_string(&path) else {
        if seed == DEFAULT_SEED {
            tally.op(false, || {
                format!("golden fingerprints {} missing", path.display())
            });
        }
        return "not_measured".to_string();
    };
    let golden: BTreeMap<&str, &str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.split_once('\t'))
        .collect();
    let mut keys: Vec<&str> = golden.keys().copied().collect();
    keys.extend(fps.map.keys().map(String::as_str));
    keys.sort_unstable();
    keys.dedup();
    let mut matched = 0;
    for key in &keys {
        let want = golden.get(key).copied();
        let got = fps.map.get(*key).map(String::as_str);
        if tally.op(want.is_some() && want == got, || {
            format!("fingerprint {key}: golden {want:?}, run {got:?}")
        }) {
            matched += 1;
        }
    }
    format!("{matched}/{} match", keys.len())
}
