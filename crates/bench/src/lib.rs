//! # twoview-bench
//!
//! Criterion benchmarks regenerating the runtime dimension of every table
//! and figure of the paper (the quality dimensions are regenerated by the
//! `twoview-eval` binaries; the `twoview-eval` crate docs index them).
//!
//! Benchmarks use subsampled corpus datasets so a full `cargo bench`
//! finishes in minutes; the eval binaries' `--full` mode provides
//! paper-scale runtimes.

#![forbid(unsafe_code)]

use twoview_data::corpus::PaperDataset;
use twoview_data::prelude::*;

/// Standard bench-scale instantiation of a corpus dataset.
pub fn bench_dataset(ds: PaperDataset, max_transactions: usize) -> TwoViewDataset {
    ds.generate_scaled(max_transactions).dataset
}

/// The minsup to use for a bench-scale dataset.
pub fn bench_minsup(ds: PaperDataset, data: &TwoViewDataset) -> usize {
    ds.minsup_for(data.n_transactions())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_helpers_produce_scaled_data() {
        let d = bench_dataset(PaperDataset::House, 100);
        assert_eq!(d.n_transactions(), 100);
        assert!(bench_minsup(PaperDataset::House, &d) >= 1);
    }
}
