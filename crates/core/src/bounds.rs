//! Shared admissible bounds on rule gains (paper §5.2).
//!
//! The TRANSLATOR algorithms prune candidate evaluation with two bounds,
//! both of which dominate every directional gain of a pair `(X, Y)`:
//!
//! * **`qub(X ◇ Y)`** — the *quick* bound
//!   `|supp(X)|·L(Y) + |supp(Y)|·L(X) − L(X↔Y)`. It depends only on
//!   supports and code lengths, never on the cover state, so a candidate
//!   with `qub ≤ 0` can be dropped permanently; a candidate with
//!   `qub ≤ best` can skip exact gain evaluation at the current node. Not
//!   valid for extensions of `(X, Y)`. SELECT, GREEDY and EXACT all use it.
//! * **`rub(X ◇ Y)`** — the *rule* bound
//!   `Σ_{X ⊆ t_L} tub(t_R) + Σ_{Y ⊆ t_R} tub(t_L) − L(X↔Y)`, where
//!   `tub(t)` is the encoded size of the transaction's still-uncovered
//!   items ([`CoverState::uncovered_weight`]). It is monotonically
//!   non-increasing under itemset extension, which makes it the subtree
//!   pruning bound of TRANSLATOR-EXACT.
//!
//! Domination proof sketch: a directional gain can credit at most the
//! uncovered weight of each supporting target row (that is `rub`'s sum),
//! and each such row contributes at most `L(Y)` (that is `qub`'s product);
//! subtracting the cheapest rule encoding `L(X↔Y)` keeps both sums upper
//! bounds for all three directions. The `proptests_bounds` suite checks
//! domination on random data; undershooting either bound would silently
//! break the exactness of the search.

use twoview_data::prelude::*;

use crate::cover::CoverState;
use crate::encoding::CodeLengths;

/// `qub` from precomputed parts: support counts and itemset code lengths.
///
/// `supp_x·len_y + supp_y·len_x − (len_x + len_y + 1)`; the trailing `+ 1`
/// is the bidirectional marker, the cheapest of the three rule encodings.
#[inline]
pub fn qub_parts(supp_x: f64, supp_y: f64, len_x: f64, len_y: f64) -> f64 {
    supp_x * len_y + supp_y * len_x - (len_x + len_y + 1.0)
}

/// `qub(X ◇ Y)` computed from a dataset and its code lengths.
pub fn qub(codes: &CodeLengths, data: &TwoViewDataset, left: &ItemSet, right: &ItemSet) -> f64 {
    qub_parts(
        data.support_count(left) as f64,
        data.support_count(right) as f64,
        codes.itemset(left),
        codes.itemset(right),
    )
}

/// `rub` from precomputed parts: the two `tub` sums over the supports and
/// the itemset code lengths.
#[inline]
pub fn rub_parts(sum_fwd: f64, sum_bwd: f64, len_x: f64, len_y: f64) -> f64 {
    sum_fwd + sum_bwd - (len_x + len_y + 1.0)
}

/// `rub(X ◇ Y)` against the current cover state, given the antecedent
/// tidsets: two weighted popcounts over the `tub` columns.
pub fn rub(
    state: &CoverState<'_>,
    left: &ItemSet,
    right: &ItemSet,
    left_tids: &Tidset,
    right_tids: &Tidset,
) -> f64 {
    let sum_fwd = left_tids.weighted_len(state.uncovered_weights(Side::Right));
    let sum_bwd = right_tids.weighted_len(state.uncovered_weights(Side::Left));
    rub_parts(
        sum_fwd,
        sum_bwd,
        state.codes().itemset(left),
        state.codes().itemset(right),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Direction, TranslationRule};

    fn structured() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y", "z"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4, 5],
                vec![0, 1, 2, 3, 4],
                vec![2, 5],
                vec![0, 5],
            ],
        )
    }

    /// Every occurring single/pair combination: qub and rub dominate all
    /// three directional gains, at the empty model and after a rule.
    #[test]
    fn bounds_dominate_gains() {
        let d = structured();
        let mut state = CoverState::new(&d);
        for round in 0..2 {
            let pairs = [
                (ItemSet::from_items([0, 1]), ItemSet::from_items([3, 4])),
                (ItemSet::from_items([0]), ItemSet::from_items([3])),
                (ItemSet::from_items([2]), ItemSet::from_items([5])),
            ];
            for (left, right) in &pairs {
                let lt = d.support_set(left);
                let rt = d.support_set(right);
                let gains = state.pair_gains(left, right, &lt, &rt);
                let q = qub(state.codes(), &d, left, right);
                let r = rub(&state, left, right, &lt, &rt);
                for g in gains {
                    assert!(q + 1e-9 >= g, "round {round}: qub {q} < gain {g}");
                    assert!(r + 1e-9 >= g, "round {round}: rub {r} < gain {g}");
                }
            }
            state.apply_rule(TranslationRule::new(
                ItemSet::from_items([0, 1]),
                ItemSet::from_items([3, 4]),
                Direction::Both,
            ));
        }
    }

    /// `rub` shrinks as rules cover the data (tub mass only decreases),
    /// while `qub` is state-independent.
    #[test]
    fn rub_is_monotone_under_coverage() {
        let d = structured();
        let mut state = CoverState::new(&d);
        let left = ItemSet::from_items([0, 1]);
        let right = ItemSet::from_items([3, 4]);
        let lt = d.support_set(&left);
        let rt = d.support_set(&right);
        let before = rub(&state, &left, &right, &lt, &rt);
        let q_before = qub(state.codes(), &d, &left, &right);
        state.apply_rule(TranslationRule::new(
            left.clone(),
            right.clone(),
            Direction::Both,
        ));
        let after = rub(&state, &left, &right, &lt, &rt);
        let q_after = qub(state.codes(), &d, &left, &right);
        assert!(after < before);
        assert_eq!(q_before, q_after);
    }

    #[test]
    fn parts_match_full_computation() {
        let d = structured();
        let state = CoverState::new(&d);
        let left = ItemSet::from_items([0]);
        let right = ItemSet::from_items([3, 4]);
        let lt = d.support_set(&left);
        let rt = d.support_set(&right);
        let len_l = state.codes().itemset(&left);
        let len_r = state.codes().itemset(&right);
        let q = qub_parts(lt.len() as f64, rt.len() as f64, len_l, len_r);
        assert!((q - qub(state.codes(), &d, &left, &right)).abs() < 1e-12);
        let sum_fwd = lt.weighted_len(state.uncovered_weights(Side::Right));
        let sum_bwd = rt.weighted_len(state.uncovered_weights(Side::Left));
        let r = rub_parts(sum_fwd, sum_bwd, len_l, len_r);
        assert!((r - rub(&state, &left, &right, &lt, &rt)).abs() < 1e-12);
    }
}
