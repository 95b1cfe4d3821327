//! Synthetic two-view data with *planted* cross-view structure.
//!
//! The paper evaluates on 14 real datasets that we cannot redistribute, so
//! the corpus module re-creates each of them synthetically (see
//! [`crate::corpus`]). The generator here is the common machinery: it plants a
//! configurable number of cross-view *concepts* — pairs `(X ⊆ I_L, Y ⊆ I_R)`
//! that tend to occur together — and then adds independent background noise
//! calibrated so each side hits a target density. The planted concepts are
//! returned as ground truth, which the test-suite uses to check that
//! TRANSLATOR recovers them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bitmap::Bitmap;
use crate::dataset::TwoViewDataset;
use crate::error::DataError;
use crate::items::{ItemId, ItemSet, Side, Vocabulary};

/// A planted cross-view association (ground truth for one generated dataset).
#[derive(Clone, Debug)]
pub struct PlantedConcept {
    /// Left-hand itemset (global ids).
    pub left: ItemSet,
    /// Right-hand itemset (global ids).
    pub right: ItemSet,
    /// Probability that the concept is active in a transaction.
    pub occurrence: f64,
    /// Probability that the right side fires when the concept is active.
    pub confidence: f64,
    /// Symmetric concepts never fire their right side alone; asymmetric ones
    /// do, which caps the confidence of the `←` direction.
    pub bidirectional: bool,
}

/// How much cross-view structure to plant.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureSpec {
    /// Number of planted concepts.
    pub n_concepts: usize,
    /// Per-transaction activation probability of each concept.
    pub occurrence: f64,
    /// `P(right fires | concept active)`.
    pub confidence: f64,
    /// Per-item firing probability inside an active concept (itemsets fire
    /// *almost* completely, like real attribute blocks).
    pub item_fire: f64,
    /// Fraction of concepts that are symmetric (bidirectional).
    pub bidir_fraction: f64,
    /// Inclusive size range for the left itemsets.
    pub left_size: (usize, usize),
    /// Inclusive size range for the right itemsets.
    pub right_size: (usize, usize),
    /// Concept activations are decided per *block* of this many
    /// consecutive transactions instead of per transaction, so item
    /// columns carry long tid runs (sorted / temporal corpora). `0` or
    /// `1` keeps the classic per-transaction draw — and, importantly,
    /// the exact historical RNG call sequence, so existing seeds
    /// reproduce byte-identical datasets.
    pub burst_len: usize,
}

impl StructureSpec {
    /// No structure at all: the generated data is pure independent noise.
    pub fn none() -> Self {
        StructureSpec {
            n_concepts: 0,
            occurrence: 0.0,
            confidence: 0.0,
            item_fire: 0.0,
            bidir_fraction: 0.0,
            left_size: (1, 1),
            right_size: (1, 1),
            burst_len: 1,
        }
    }

    /// A reasonable default for "strong" planted structure.
    pub fn strong(n_concepts: usize) -> Self {
        StructureSpec {
            n_concepts,
            occurrence: 0.25,
            confidence: 0.9,
            item_fire: 0.95,
            bidir_fraction: 0.5,
            left_size: (2, 4),
            right_size: (2, 3),
            burst_len: 1,
        }
    }

    /// `strong` structure whose concepts activate in blocks of
    /// `burst_len` consecutive transactions — tid columns become runs.
    pub fn bursty(n_concepts: usize, burst_len: usize) -> Self {
        StructureSpec {
            burst_len,
            ..StructureSpec::strong(n_concepts)
        }
    }
}

/// Full description of one synthetic two-view dataset.
#[derive(Clone, Debug)]
pub struct SyntheticSpec {
    /// Dataset name (also attached to the generated [`TwoViewDataset`]).
    pub name: String,
    /// `|D|`.
    pub n_transactions: usize,
    /// `|I_L|` — ignored when an explicit vocabulary is supplied.
    pub n_left: usize,
    /// `|I_R|` — ignored when an explicit vocabulary is supplied.
    pub n_right: usize,
    /// Target density of the left view.
    pub density_left: f64,
    /// Target density of the right view.
    pub density_right: f64,
    /// Planted structure.
    pub structure: StructureSpec,
    /// RNG seed — generation is fully deterministic given the spec.
    pub seed: u64,
}

impl SyntheticSpec {
    /// Validates ranges (densities in `[0,1]`, probabilities in `[0,1]`,
    /// non-empty dimensions).
    pub fn validate(&self) -> Result<(), DataError> {
        let prob = |v: f64, what: &str| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(DataError::Config(format!("{what} = {v} outside [0,1]")))
            }
        };
        prob(self.density_left, "density_left")?;
        prob(self.density_right, "density_right")?;
        prob(self.structure.occurrence, "occurrence")?;
        prob(self.structure.confidence, "confidence")?;
        prob(self.structure.item_fire, "item_fire")?;
        prob(self.structure.bidir_fraction, "bidir_fraction")?;
        if self.n_left == 0 || self.n_right == 0 {
            return Err(DataError::Config("empty item vocabulary".into()));
        }
        if self.structure.left_size.0 > self.structure.left_size.1
            || self.structure.right_size.0 > self.structure.right_size.1
        {
            return Err(DataError::Config("inverted itemset size range".into()));
        }
        Ok(())
    }

    /// Returns a copy scaled to at most `max_transactions` rows (structure
    /// and densities unchanged). Used for quick experiment runs.
    pub fn scaled_to(&self, max_transactions: usize) -> SyntheticSpec {
        let mut s = self.clone();
        s.n_transactions = s.n_transactions.min(max_transactions);
        s
    }
}

/// A generated dataset together with its planted ground truth.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The generated two-view data.
    pub dataset: TwoViewDataset,
    /// The concepts that were planted (ground truth).
    pub concepts: Vec<PlantedConcept>,
}

/// Generates a dataset from `spec` with an auto-built unnamed vocabulary.
pub fn generate(spec: &SyntheticSpec) -> Result<SyntheticDataset, DataError> {
    generate_with_vocab(spec, Vocabulary::unnamed(spec.n_left, spec.n_right))
}

/// Generates a dataset from `spec` using the given (named) vocabulary.
///
/// The vocabulary's dimensions override `spec.n_left`/`spec.n_right`.
pub fn generate_with_vocab(
    spec: &SyntheticSpec,
    vocab: Vocabulary,
) -> Result<SyntheticDataset, DataError> {
    let mut spec = spec.clone();
    spec.n_left = vocab.n_left();
    spec.n_right = vocab.n_right();
    spec.validate()?;

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.n_transactions;
    let concepts = plant_concepts(&spec, &vocab, &mut rng);

    // Row bitmaps in local per-side indices.
    let mut left_rows = vec![Bitmap::new(spec.n_left); n];
    let mut right_rows = vec![Bitmap::new(spec.n_right); n];

    // Phase 1: structure.
    if spec.structure.burst_len <= 1 {
        // Classic per-transaction draws. This branch is kept verbatim so
        // the RNG call sequence — and therefore every historical seed —
        // is byte-identical when bursts are off.
        for t in 0..n {
            for c in &concepts {
                if rng.gen_bool(c.occurrence) {
                    fire(
                        &mut left_rows[t],
                        &c.left,
                        &vocab,
                        spec.structure.item_fire,
                        &mut rng,
                    );
                    if rng.gen_bool(c.confidence) {
                        fire(
                            &mut right_rows[t],
                            &c.right,
                            &vocab,
                            spec.structure.item_fire,
                            &mut rng,
                        );
                    }
                } else if !c.bidirectional && rng.gen_bool(c.occurrence * 0.6) {
                    // Asymmetric concepts fire their right side alone now and
                    // then: the L→R direction stays strong, the R→L one
                    // weakens.
                    fire(
                        &mut right_rows[t],
                        &c.right,
                        &vocab,
                        spec.structure.item_fire,
                        &mut rng,
                    );
                }
            }
        }
    } else {
        // Bursty draws: one activation decision per block of consecutive
        // transactions, so each concept's tid column is a union of runs
        // of length ≈ burst_len (modulo per-item fire noise).
        let burst = spec.structure.burst_len;
        let mut t0 = 0usize;
        while t0 < n {
            let t1 = (t0 + burst).min(n);
            for c in &concepts {
                if rng.gen_bool(c.occurrence) {
                    let right_fires = rng.gen_bool(c.confidence);
                    for t in t0..t1 {
                        fire(
                            &mut left_rows[t],
                            &c.left,
                            &vocab,
                            spec.structure.item_fire,
                            &mut rng,
                        );
                        if right_fires {
                            fire(
                                &mut right_rows[t],
                                &c.right,
                                &vocab,
                                spec.structure.item_fire,
                                &mut rng,
                            );
                        }
                    }
                } else if !c.bidirectional && rng.gen_bool(c.occurrence * 0.6) {
                    for row in &mut right_rows[t0..t1] {
                        fire(row, &c.right, &vocab, spec.structure.item_fire, &mut rng);
                    }
                }
            }
            t0 = t1;
        }
    }

    // Phase 2: noise, calibrated to reach the target densities.
    add_noise(&mut left_rows, spec.n_left, spec.density_left, n, &mut rng);
    add_noise(
        &mut right_rows,
        spec.n_right,
        spec.density_right,
        n,
        &mut rng,
    );

    // Assemble transactions as global id lists.
    let mut transactions: Vec<Vec<ItemId>> = Vec::with_capacity(n);
    for t in 0..n {
        let mut items: Vec<ItemId> = left_rows[t]
            .iter()
            .map(|l| vocab.global_id(Side::Left, l))
            .collect();
        items.extend(
            right_rows[t]
                .iter()
                .map(|l| vocab.global_id(Side::Right, l)),
        );
        transactions.push(items);
    }

    let dataset = TwoViewDataset::from_transactions(vocab, &transactions).with_name(&spec.name);
    Ok(SyntheticDataset { dataset, concepts })
}

/// Samples the planted concepts. Items are drawn from shuffled per-side
/// pools so early concepts use distinct items and stay individually
/// recoverable; pools recycle if structure demands more items than exist.
fn plant_concepts(
    spec: &SyntheticSpec,
    vocab: &Vocabulary,
    rng: &mut StdRng,
) -> Vec<PlantedConcept> {
    let mut left_pool: Vec<ItemId> = vocab.items_on(Side::Left).collect();
    let mut right_pool: Vec<ItemId> = vocab.items_on(Side::Right).collect();
    left_pool.shuffle(rng);
    right_pool.shuffle(rng);
    let (mut li, mut ri) = (0usize, 0usize);

    let take = |pool: &mut Vec<ItemId>, cursor: &mut usize, k: usize, rng: &mut StdRng| {
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            if *cursor >= pool.len() {
                pool.shuffle(rng);
                *cursor = 0;
            }
            out.push(pool[*cursor]);
            *cursor += 1;
        }
        ItemSet::from_items(out)
    };

    (0..spec.structure.n_concepts)
        .map(|j| {
            let ls = rng.gen_range(spec.structure.left_size.0..=spec.structure.left_size.1);
            let rs = rng.gen_range(spec.structure.right_size.0..=spec.structure.right_size.1);
            let bidirectional = (j as f64 + 0.5) / spec.structure.n_concepts.max(1) as f64
                <= spec.structure.bidir_fraction;
            PlantedConcept {
                left: take(&mut left_pool, &mut li, ls, rng),
                right: take(&mut right_pool, &mut ri, rs, rng),
                occurrence: spec.structure.occurrence,
                confidence: spec.structure.confidence,
                bidirectional,
            }
        })
        .collect()
}

/// Sets each item of `set` in `row` with probability `p` (local indices).
fn fire(row: &mut Bitmap, set: &ItemSet, vocab: &Vocabulary, p: f64, rng: &mut StdRng) {
    for item in set.iter() {
        if rng.gen_bool(p) {
            row.insert(vocab.local_index(item));
        }
    }
}

/// Adds independent noise so the side reaches `target_density` in
/// expectation. Noise only *adds* ones; if the planted structure alone
/// already exceeds the target the side is left as-is (documented behaviour).
fn add_noise(rows: &mut [Bitmap], n_items: usize, target_density: f64, n: usize, rng: &mut StdRng) {
    let cells = n * n_items;
    if cells == 0 {
        return;
    }
    let structural: usize = rows.iter().map(Bitmap::len).sum();
    let target_ones = target_density * cells as f64;
    let free = cells - structural;
    if free == 0 {
        return;
    }
    let p = ((target_ones - structural as f64) / free as f64).clamp(0.0, 1.0);
    if p == 0.0 {
        return;
    }
    for row in rows.iter_mut() {
        for i in 0..n_items {
            if !row.contains(i) && rng.gen_bool(p) {
                row.insert(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(structure: StructureSpec) -> SyntheticSpec {
        SyntheticSpec {
            name: "test".into(),
            n_transactions: 500,
            n_left: 20,
            n_right: 15,
            density_left: 0.2,
            density_right: 0.25,
            structure,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec(StructureSpec::strong(4));
        let a = generate(&s).unwrap();
        let b = generate(&s).unwrap();
        for t in 0..a.dataset.n_transactions() {
            assert_eq!(
                a.dataset.transaction_items(t),
                b.dataset.transaction_items(t)
            );
        }
        assert_eq!(a.concepts.len(), b.concepts.len());
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = spec(StructureSpec::strong(4));
        let mut s2 = s1.clone();
        s2.seed = 43;
        let a = generate(&s1).unwrap();
        let b = generate(&s2).unwrap();
        let differs = (0..a.dataset.n_transactions())
            .any(|t| a.dataset.transaction_items(t) != b.dataset.transaction_items(t));
        assert!(differs);
    }

    #[test]
    fn densities_hit_target() {
        let s = spec(StructureSpec::strong(4));
        let d = generate(&s).unwrap().dataset;
        assert!(
            (d.density(Side::Left) - 0.2).abs() < 0.03,
            "{}",
            d.density(Side::Left)
        );
        assert!(
            (d.density(Side::Right) - 0.25).abs() < 0.03,
            "{}",
            d.density(Side::Right)
        );
    }

    #[test]
    fn noise_only_matches_density_too() {
        let s = spec(StructureSpec::none());
        let out = generate(&s).unwrap();
        assert!(out.concepts.is_empty());
        let d = out.dataset;
        assert!((d.density(Side::Left) - 0.2).abs() < 0.03);
    }

    #[test]
    fn planted_concepts_are_cross_view_and_sized() {
        let s = spec(StructureSpec::strong(5));
        let out = generate(&s).unwrap();
        assert_eq!(out.concepts.len(), 5);
        let vocab = out.dataset.vocab();
        for c in &out.concepts {
            assert!(!c.left.is_empty() && !c.right.is_empty());
            assert!(c.left.iter().all(|i| vocab.side_of(i) == Side::Left));
            assert!(c.right.iter().all(|i| vocab.side_of(i) == Side::Right));
            assert!((2..=4).contains(&c.left.len()));
            assert!((2..=3).contains(&c.right.len()));
        }
    }

    #[test]
    fn planted_structure_shows_in_confidence() {
        // With strong planting, supp(X ∪ Y) / supp(X) must be well above the
        // background rate for at least one concept.
        let s = spec(StructureSpec::strong(3));
        let out = generate(&s).unwrap();
        let d = &out.dataset;
        let mut found_strong = false;
        for c in &out.concepts {
            let sx = d.support_count(&c.left);
            if sx == 0 {
                continue;
            }
            let sxy = d.support_count(&c.left.union(&c.right));
            let conf = sxy as f64 / sx as f64;
            if conf > 0.5 {
                found_strong = true;
            }
        }
        assert!(found_strong, "no planted concept is recoverable");
    }

    #[test]
    fn bursty_structure_produces_tid_runs() {
        let mut s = spec(StructureSpec::bursty(3, 25));
        s.density_left = 0.0;
        s.density_right = 0.0;
        let out = generate(&s).unwrap();
        let item = out.concepts[0].left.iter().next().unwrap();
        let tids: Vec<usize> = (0..out.dataset.n_transactions())
            .filter(|&t| out.dataset.transaction_items(t).contains(item))
            .collect();
        assert!(tids.len() >= 25, "planted item too rare: {}", tids.len());
        let runs = tids.windows(2).filter(|w| w[1] != w[0] + 1).count() + 1;
        let mean_run = tids.len() as f64 / runs as f64;
        assert!(
            mean_run >= 4.0,
            "bursts should produce long runs, mean {mean_run} over {runs} runs"
        );
        // Per-transaction draws on the same seed give near-singleton runs.
        let mut s1 = s.clone();
        s1.structure.burst_len = 1;
        let flat = generate(&s1).unwrap();
        let flat_tids: Vec<usize> = (0..flat.dataset.n_transactions())
            .filter(|&t| flat.dataset.transaction_items(t).contains(item))
            .collect();
        let flat_runs = flat_tids.windows(2).filter(|w| w[1] != w[0] + 1).count() + 1;
        let flat_mean = flat_tids.len() as f64 / flat_runs as f64;
        assert!(flat_mean < mean_run, "{flat_mean} vs {mean_run}");
    }

    #[test]
    fn burst_len_zero_and_one_share_the_classic_path() {
        let mut a = spec(StructureSpec::strong(4));
        a.structure.burst_len = 0;
        let mut b = spec(StructureSpec::strong(4));
        b.structure.burst_len = 1;
        let da = generate(&a).unwrap().dataset;
        let db = generate(&b).unwrap().dataset;
        for t in 0..da.n_transactions() {
            assert_eq!(da.transaction_items(t), db.transaction_items(t));
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = spec(StructureSpec::none());
        s.density_left = 1.5;
        assert!(s.validate().is_err());
        let mut s = spec(StructureSpec::none());
        s.n_left = 0;
        assert!(generate(&s).is_err());
        let mut s = spec(StructureSpec::strong(2));
        s.structure.left_size = (3, 2);
        assert!(s.validate().is_err());
    }

    #[test]
    fn scaled_to_caps_transactions() {
        let s = spec(StructureSpec::none());
        assert_eq!(s.scaled_to(100).n_transactions, 100);
        assert_eq!(s.scaled_to(10_000).n_transactions, 500);
    }

    #[test]
    fn named_vocab_is_used() {
        let s = spec(StructureSpec::none());
        let vocab = Vocabulary::new(
            (0..20).map(|i| format!("vote{i}")),
            (0..15).map(|i| format!("law{i}")),
        );
        let d = generate_with_vocab(&s, vocab).unwrap().dataset;
        assert_eq!(d.vocab().name(0), "vote0");
        assert_eq!(d.vocab().name(20), "law0");
    }
}
