//! Layer probes that need the layer's own entry points: the tidset
//! census, the gain-refresh kernel, and SELECT's run counters. They run
//! outside the timed passes, so they cost run time but no pass time.

use std::hint::black_box;
use std::time::Instant;

use twoview::core::select::{translator_select_candidates_with_stats, SelectStats};
use twoview::prelude::*;

use crate::check::model_fingerprint;
use crate::run::LayerSamples;

/// Candidates whose tidsets are built and refreshed per chunk (bounds the
/// probe's memory on inputs with hundreds of thousands of candidates).
const CHUNK: usize = 4096;

/// Counts the representations and heap bytes of every candidate's two
/// support sets, and times one `CoverState::pair_gains` pass over them on
/// the empty table (the first gain refresh SELECT performs).
pub fn census_and_refresh(
    data: &TwoViewDataset,
    candidates: &[TwoViewCandidate],
    out: &mut LayerSamples,
) {
    let state = CoverState::new(data);
    for chunk in candidates.chunks(CHUNK) {
        let tids: Vec<(Tidset, Tidset)> = chunk
            .iter()
            .map(|c| (data.support_set(&c.left), data.support_set(&c.right)))
            .collect();
        for t in tids.iter().flat_map(|(l, r)| [l, r]) {
            if t.is_sparse() {
                out.tidset_sparse += 1;
            } else if t.is_runs() {
                out.tidset_runs += 1;
            } else {
                out.tidset_dense += 1;
            }
            out.tidset_bytes += t.heap_bytes() as u64;
        }
        let start = Instant::now();
        for (c, (lt, rt)) in chunk.iter().zip(&tids) {
            black_box(state.pair_gains(&c.left, &c.right, lt, rt));
        }
        out.refresh_ns += start.elapsed().as_nanos() as f64;
        out.refresh_cands += chunk.len() as u64;
    }
}

/// Runs SELECT through `translator_select_candidates_with_stats` and adds
/// its counters; returns the model's fingerprint, which must equal the
/// engine fit's.
pub fn select_stats(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
    out: &mut LayerSamples,
) -> String {
    let mut stats = SelectStats::default();
    let model = translator_select_candidates_with_stats(data, cfg, candidates, &mut stats);
    out.select_iterations += stats.iterations as u64;
    out.select_refreshes += stats.refreshes as u64;
    out.select_rub_prunes += stats.rub_prunes as u64;
    out.select_bound_maintain_ms += stats.bound_maintain_ms;
    model_fingerprint(&model)
}
