//! Significant rule discovery à la Magnum Opus (Webb, ML 2007).
//!
//! The paper compares against the Magnum Opus tool, which implements
//! Webb's *significant pattern discovery*: rules are kept only when the
//! association between antecedent and consequent passes Fisher's exact test
//! under a Bonferroni-style correction for the size of the hypothesis
//! space, and only when they are *productive* — strictly more confident
//! than every immediate generalisation. Magnum Opus itself is closed
//! source; this module reimplements the published method (the
//! `twoview_baselines` crate docs list every such substitution).
//!
//! Mirroring the paper's protocol (§6.3), the miner runs once per
//! orientation — antecedents from one view, single-item consequents from
//! the other — and rules found in both orientations merge into a single
//! bidirectional rule.

use std::collections::HashMap;

use twoview_core::{Direction, TranslationRule, TranslationTable};
use twoview_data::prelude::*;
use twoview_mining::{mine_frequent, MinerConfig};

use crate::fisher::{fisher_exact_over, LnFactorials};

/// Parameters of the significant-rule search.
#[derive(Clone, Debug)]
pub struct MagnumConfig {
    /// Family-wise error rate before correction (Magnum Opus default 0.05).
    pub alpha: f64,
    /// Maximum antecedent size (Magnum Opus default 4).
    pub max_antecedent: usize,
    /// Minimum absolute support of the antecedent (search-space control).
    pub min_coverage: usize,
    /// Safety valve on enumerated antecedents per orientation.
    pub max_antecedents: usize,
    /// Keep only the most significant rules (Magnum Opus's default search
    /// returns the top 100).
    pub max_rules: usize,
}

impl Default for MagnumConfig {
    fn default() -> Self {
        MagnumConfig {
            alpha: 0.05,
            max_antecedent: 4,
            min_coverage: 5,
            max_antecedents: 500_000,
            max_rules: 100,
        }
    }
}

/// A significant rule with its test statistics.
#[derive(Clone, Debug)]
pub struct SignificantRule {
    /// Left-view itemset.
    pub left: ItemSet,
    /// Right-view itemset.
    pub right: ItemSet,
    /// Direction (merged rules become [`Direction::Both`]).
    pub direction: Direction,
    /// Joint support.
    pub support: usize,
    /// Confidence of the originating orientation.
    pub confidence: f64,
    /// Fisher exact p-value (of the weaker orientation for merged rules).
    pub p_value: f64,
}

/// Result of a run: the merged rule set plus the corrected threshold used.
#[derive(Clone, Debug)]
pub struct MagnumResult {
    /// Significant, productive rules (both orientations merged).
    pub rules: Vec<SignificantRule>,
    /// The Bonferroni-corrected significance level `α / m`.
    pub corrected_alpha: f64,
    /// Number of hypotheses `m` (antecedent–consequent pairs tested).
    pub n_hypotheses: usize,
}

impl MagnumResult {
    /// Converts the rule set into a translation table for MDL evaluation
    /// (paper Table 3 protocol).
    pub fn to_translation_table(&self) -> TranslationTable {
        TranslationTable::from_rules(
            self.rules
                .iter()
                .map(|r| TranslationRule::new(r.left.clone(), r.right.clone(), r.direction)),
        )
    }
}

/// Runs significant rule discovery on both orientations and merges.
pub fn magnum_opus_rules(data: &TwoViewDataset, cfg: &MagnumConfig) -> MagnumResult {
    let n = data.n_transactions();
    let lf = LnFactorials::new(n);

    let fwd = directional_rules(data, Side::Left, cfg, &lf);
    let bwd = directional_rules(data, Side::Right, cfg, &lf);
    let n_hypotheses = fwd.n_hypotheses + bwd.n_hypotheses;
    let corrected_alpha = cfg.alpha / n_hypotheses.max(1) as f64;

    // Significance filter with the global correction.
    let keep = |rules: Vec<RawRule>| -> Vec<RawRule> {
        rules
            .into_iter()
            .filter(|r| r.p_value <= corrected_alpha)
            .collect()
    };
    let fwd = keep(fwd.rules);
    let bwd = keep(bwd.rules);

    // Merge orientations: identical (left, right) pairs become bidirectional.
    let mut merged: HashMap<(ItemSet, ItemSet), SignificantRule> = HashMap::new();
    for r in fwd {
        merged.insert(
            (r.left.clone(), r.right.clone()),
            SignificantRule {
                left: r.left,
                right: r.right,
                direction: Direction::Forward,
                support: r.support,
                confidence: r.confidence,
                p_value: r.p_value,
            },
        );
    }
    for r in bwd {
        match merged.entry((r.left.clone(), r.right.clone())) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let m = e.get_mut();
                m.direction = Direction::Both;
                m.p_value = m.p_value.max(r.p_value);
                m.confidence = m.confidence.max(r.confidence);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SignificantRule {
                    left: r.left,
                    right: r.right,
                    direction: Direction::Backward,
                    support: r.support,
                    confidence: r.confidence,
                    p_value: r.p_value,
                });
            }
        }
    }
    let mut rules: Vec<SignificantRule> = merged.into_values().collect();
    rules.sort_by(|a, b| {
        a.p_value
            .total_cmp(&b.p_value)
            .then(b.support.cmp(&a.support))
            .then((&a.left, &a.right).cmp(&(&b.left, &b.right)))
    });
    rules.truncate(cfg.max_rules);
    MagnumResult {
        rules,
        corrected_alpha,
        n_hypotheses,
    }
}

/// Webb's alternative protocol: **holdout evaluation**. Rules are
/// discovered on an exploratory split without a search-space-wide
/// correction, then each discovered rule is retested on the unseen holdout
/// half with a correction only for the number of *discovered* rules — far
/// less conservative than the full Bonferroni correction when the search
/// space is large.
pub fn magnum_opus_rules_holdout(
    data: &TwoViewDataset,
    cfg: &MagnumConfig,
    exploratory_fraction: f64,
    seed: u64,
) -> MagnumResult {
    let (explore, hold) = twoview_data::sample::holdout_split(data, exploratory_fraction, seed);
    if explore.n_transactions() == 0 || hold.n_transactions() == 0 {
        return MagnumResult {
            rules: Vec::new(),
            corrected_alpha: cfg.alpha,
            n_hypotheses: 0,
        };
    }
    let lf_explore = LnFactorials::new(explore.n_transactions());
    let fwd = directional_rules(&explore, Side::Left, cfg, &lf_explore);
    let bwd = directional_rules(&explore, Side::Right, cfg, &lf_explore);

    // Exploratory screening: keep the rules significant at the *uncorrected*
    // level — the holdout test is the real filter.
    let screened: Vec<RawRule> = fwd
        .rules
        .into_iter()
        .chain(bwd.rules)
        .filter(|r| r.p_value <= cfg.alpha)
        .collect();
    let n_found = screened.len();
    let corrected_alpha = cfg.alpha / n_found.max(1) as f64;

    // Retest on the holdout half.
    let lf_hold = LnFactorials::new(hold.n_transactions());
    let mut merged: HashMap<(ItemSet, ItemSet), SignificantRule> = HashMap::new();
    for r in screened {
        let sx = hold.support_count(&r.left);
        let sy = hold.support_count(&r.right);
        if sx == 0 || sy == 0 {
            continue;
        }
        let sxy = hold
            .support_set(&r.left)
            .intersection_len(&hold.support_set(&r.right));
        let p = fisher_exact_over(&lf_hold, hold.n_transactions(), sx, sy, sxy);
        if p > corrected_alpha {
            continue;
        }
        // Orientation of the original discovery: single-item right side from
        // the backward pass; merge duplicates into Both like the main path.
        let confidence = sxy as f64 / sx as f64;
        match merged.entry((r.left.clone(), r.right.clone())) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let m = e.get_mut();
                m.direction = Direction::Both;
                m.p_value = m.p_value.max(p);
                m.confidence = m.confidence.max(confidence);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SignificantRule {
                    left: r.left,
                    right: r.right,
                    direction: if r.forward {
                        Direction::Forward
                    } else {
                        Direction::Backward
                    },
                    support: sxy,
                    confidence,
                    p_value: p,
                });
            }
        }
    }
    let mut rules: Vec<SignificantRule> = merged.into_values().collect();
    rules.sort_by(|a, b| {
        a.p_value
            .total_cmp(&b.p_value)
            .then(b.support.cmp(&a.support))
            .then((&a.left, &a.right).cmp(&(&b.left, &b.right)))
    });
    rules.truncate(cfg.max_rules);
    MagnumResult {
        rules,
        corrected_alpha,
        n_hypotheses: n_found,
    }
}

struct RawRule {
    left: ItemSet,
    right: ItemSet,
    support: usize,
    confidence: f64,
    p_value: f64,
    /// `true` when discovered in the L→R orientation.
    forward: bool,
}

struct DirectionalOutput {
    rules: Vec<RawRule>,
    n_hypotheses: usize,
}

/// One orientation: antecedents over `from`, single-item consequents over
/// the opposite view.
fn directional_rules(
    data: &TwoViewDataset,
    from: Side,
    cfg: &MagnumConfig,
    lf: &LnFactorials,
) -> DirectionalOutput {
    let vocab = data.vocab();
    let n = data.n_transactions();

    // Mine frequent antecedents over the source view only by projecting the
    // dataset: itemsets restricted to `from` items.
    let antecedents = mine_side_itemsets(data, from, cfg);
    let consequents: Vec<ItemId> = vocab.items_on(from.opposite()).collect();
    let n_hypotheses = antecedents.len() * consequents.len();

    // Supports of antecedents are needed for the productivity check; index
    // them for O(1) lookup.
    let supp_index: HashMap<&ItemSet, usize> =
        antecedents.iter().map(|(s, sup)| (s, *sup)).collect();

    let mut rules = Vec::new();
    for (ante, sx) in &antecedents {
        let tid_x = data.support_set(ante);
        for &y in &consequents {
            let sy = data.support(y);
            if sy == 0 {
                continue;
            }
            let sxy = tid_x.intersection_len(data.tidset(y));
            if sxy == 0 {
                continue;
            }
            let confidence = sxy as f64 / *sx as f64;
            // Lift filter: only positive associations are of interest.
            if confidence <= sy as f64 / n as f64 {
                continue;
            }
            // Productivity: strictly higher confidence than every immediate
            // generalisation X \ {x} → y.
            if !is_productive(data, ante, y, confidence, &supp_index) {
                continue;
            }
            let p_value = fisher_exact_over(lf, n, *sx, sy, sxy);
            let (left, right) = match from {
                Side::Left => (ante.clone(), ItemSet::singleton(y)),
                Side::Right => (ItemSet::singleton(y), ante.clone()),
            };
            rules.push(RawRule {
                left,
                right,
                support: sxy,
                confidence,
                p_value,
                forward: from == Side::Left,
            });
        }
    }
    DirectionalOutput {
        rules,
        n_hypotheses,
    }
}

/// Frequent itemsets restricted to one view (the antecedent space).
fn mine_side_itemsets(
    data: &TwoViewDataset,
    side: Side,
    cfg: &MagnumConfig,
) -> Vec<(ItemSet, usize)> {
    let mut miner_cfg = MinerConfig::builder()
        .minsup(cfg.min_coverage)
        .max_len(cfg.max_antecedent)
        .build();
    miner_cfg.max_itemsets = cfg.max_antecedents;
    // Mine over the joint data but keep only single-view itemsets; the
    // miner's DFS order makes this equivalent to mining the projection.
    let res = mine_frequent(data, &miner_cfg);
    let vocab = data.vocab();
    res.itemsets
        .into_iter()
        .filter(|f| f.items.iter().all(|i| vocab.side_of(i) == side))
        .map(|f| (f.items, f.support))
        .collect()
}

fn is_productive(
    data: &TwoViewDataset,
    ante: &ItemSet,
    y: ItemId,
    confidence: f64,
    supp_index: &HashMap<&ItemSet, usize>,
) -> bool {
    if ante.len() == 1 {
        return true; // no non-empty generalisation
    }
    for drop in ante.iter() {
        let general: ItemSet = ante.iter().filter(|&i| i != drop).collect();
        let sg = supp_index
            .get(&general)
            .copied()
            .unwrap_or_else(|| data.support_count(&general));
        if sg == 0 {
            return false;
        }
        let sgy = data.support_set(&general).intersection_len(data.tidset(y));
        if sgy as f64 / sg as f64 >= confidence {
            return false; // generalisation is at least as confident
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 40 transactions where a ⇔ x perfectly, b is noise, y is rare noise.
    fn strong_pair() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b"], ["x", "y"]);
        let mut txs = Vec::new();
        for i in 0..40 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.push(0);
                t.push(2);
            }
            if i % 5 == 0 {
                t.push(1);
            }
            if i % 7 == 0 {
                t.push(3);
            }
            txs.push(t);
        }
        TwoViewDataset::from_transactions(vocab, &txs)
    }

    #[test]
    fn finds_the_planted_association_and_merges_bidirectionally() {
        let d = strong_pair();
        let res = magnum_opus_rules(&d, &MagnumConfig::default());
        assert!(!res.rules.is_empty());
        let top = &res.rules[0];
        assert_eq!(top.left.as_slice(), &[0]);
        assert_eq!(top.right.as_slice(), &[2]);
        // a→x and x→a are both perfectly confident: must merge into ↔.
        assert_eq!(top.direction, Direction::Both);
        assert!(top.p_value <= res.corrected_alpha);
    }

    #[test]
    fn no_rules_on_independent_noise() {
        // Independent coin flips: nothing should survive the correction.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let vocab = Vocabulary::unnamed(3, 3);
        let txs: Vec<Vec<ItemId>> = (0..60)
            .map(|_| (0..6).filter(|_| rng.gen_bool(0.3)).collect())
            .collect();
        let d = TwoViewDataset::from_transactions(vocab, &txs);
        let res = magnum_opus_rules(&d, &MagnumConfig::default());
        assert!(
            res.rules.len() <= 1,
            "noise produced {} 'significant' rules",
            res.rules.len()
        );
    }

    #[test]
    fn productivity_prunes_redundant_specialisations() {
        let d = strong_pair();
        let res = magnum_opus_rules(&d, &MagnumConfig::default());
        // {a,b} -> x cannot be more confident than {a} -> x (conf 1.0), so
        // no rule with antecedent {a,b} may appear.
        assert!(res
            .rules
            .iter()
            .all(|r| !(r.left.contains(0) && r.left.contains(1))));
    }

    #[test]
    fn translation_table_conversion() {
        let d = strong_pair();
        let res = magnum_opus_rules(&d, &MagnumConfig::default());
        let table = res.to_translation_table();
        assert_eq!(table.len(), res.rules.len());
        let score = twoview_core::evaluate_table(&d, &table);
        assert!(score.l_total > 0.0);
    }

    #[test]
    fn holdout_finds_strong_rules_and_rejects_noise() {
        let d = strong_pair();
        let res = magnum_opus_rules_holdout(&d, &MagnumConfig::default(), 0.5, 11);
        assert!(
            res.rules
                .iter()
                .any(|r| r.left.contains(0) && r.right.contains(2)),
            "holdout missed the planted a<->x rule: {:?}",
            res.rules
        );
        // Pure noise: nothing survives the holdout retest.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let vocab = Vocabulary::unnamed(3, 3);
        let txs: Vec<Vec<ItemId>> = (0..80)
            .map(|_| (0..6).filter(|_| rng.gen_bool(0.3)).collect())
            .collect();
        let noise = TwoViewDataset::from_transactions(vocab, &txs);
        let res = magnum_opus_rules_holdout(&noise, &MagnumConfig::default(), 0.5, 11);
        assert!(res.rules.len() <= 1, "noise rules: {:?}", res.rules.len());
    }

    #[test]
    fn holdout_handles_degenerate_splits() {
        let d = strong_pair();
        let all = magnum_opus_rules_holdout(&d, &MagnumConfig::default(), 1.0, 3);
        assert!(all.rules.is_empty());
        let none = magnum_opus_rules_holdout(&d, &MagnumConfig::default(), 0.0, 3);
        assert!(none.rules.is_empty());
    }

    #[test]
    fn corrected_alpha_shrinks_with_space() {
        let d = strong_pair();
        let small = magnum_opus_rules(
            &d,
            &MagnumConfig {
                max_antecedent: 1,
                ..MagnumConfig::default()
            },
        );
        let large = magnum_opus_rules(&d, &MagnumConfig::default());
        assert!(large.n_hypotheses >= small.n_hypotheses);
        assert!(large.corrected_alpha <= small.corrected_alpha);
    }
}
