//! Ablation benchmarks for the main design choices:
//!
//! 1. EXACT bound effectiveness (`rub` / `qub` on vs off);
//! 2. SELECT candidate class (closed vs all frequent itemsets);
//! 3. SELECT k sweep;
//! 4. SELECT gain cache on vs off;
//! 5. GREEDY candidate ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use twoview_bench::bench_dataset;
use twoview_core::exact::best_rule;
use twoview_core::{
    translator_greedy, translator_select, CandidateOrder, CoverState, ExactConfig, GreedyConfig,
    SelectConfig,
};
use twoview_data::corpus::PaperDataset;

fn ablate_exact_bounds(c: &mut Criterion) {
    // Tiny data: the unpruned search is exponential.
    let data = bench_dataset(PaperDataset::Wine, 60);
    let state = CoverState::new(&data);
    let mut g = c.benchmark_group("ablation/exact-bounds");
    g.sample_size(10);
    let variants = [
        ("rub+qub", true, true),
        ("rub-only", true, false),
        ("qub-only", false, true),
    ];
    for (name, use_rub, use_qub) in variants {
        let cfg = ExactConfig {
            use_rub,
            use_qub,
            max_nodes: Some(3_000_000),
            candidate_seed_minsup: None,
            ..ExactConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(best_rule(&state, cfg)));
        });
    }
    g.finish();
}

fn ablate_select_candidates(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::Wine, 178);
    let mut g = c.benchmark_group("ablation/select-candidates");
    g.sample_size(10);
    g.bench_function("closed", |b| {
        b.iter(|| {
            black_box(translator_select(
                &data,
                &SelectConfig::builder().k(1).minsup(2).build(),
            ))
        });
    });
    g.bench_function("all-frequent", |b| {
        let cfg = SelectConfig {
            closed_candidates: false,
            ..SelectConfig::builder().k(1).minsup(2).build()
        };
        b.iter(|| black_box(translator_select(&data, &cfg)));
    });
    g.finish();
}

fn ablate_select_k(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::House, 250);
    let mut g = c.benchmark_group("ablation/select-k");
    g.sample_size(10);
    for k in [1usize, 5, 25, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(translator_select(
                    &data,
                    &SelectConfig::builder().k(k).minsup(5).build(),
                ))
            });
        });
    }
    g.finish();
}

fn ablate_gain_cache(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::House, 250);
    let mut g = c.benchmark_group("ablation/gain-cache");
    g.sample_size(10);
    g.bench_function("cached", |b| {
        b.iter(|| {
            black_box(translator_select(
                &data,
                &SelectConfig::builder().k(1).minsup(5).build(),
            ))
        });
    });
    g.bench_function("uncached", |b| {
        let cfg = SelectConfig {
            gain_cache: false,
            ..SelectConfig::builder().k(1).minsup(5).build()
        };
        b.iter(|| black_box(translator_select(&data, &cfg)));
    });
    g.finish();
}

fn ablate_greedy_order(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::Yeast, 400);
    let mut g = c.benchmark_group("ablation/greedy-order");
    g.sample_size(10);
    for (name, order) in [
        ("length-support", CandidateOrder::LengthThenSupport),
        ("support-length", CandidateOrder::SupportThenLength),
    ] {
        let cfg = GreedyConfig {
            order,
            ..GreedyConfig::builder().minsup(2).build()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(translator_greedy(&data, cfg)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_exact_bounds,
    ablate_select_candidates,
    ablate_select_k,
    ablate_gain_cache,
    ablate_greedy_order
);
criterion_main!(benches);
