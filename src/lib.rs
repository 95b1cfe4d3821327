//! # twoview
//!
//! A production-quality Rust reproduction of **"Association Discovery in
//! Two-View Data"** (van Leeuwen & Galbrun, IEEE TKDE 27(12), 2015): MDL-
//! selected *translation tables* that describe how the two views of a
//! Boolean dataset relate, induced by the TRANSLATOR-EXACT / -SELECT /
//! -GREEDY algorithms, together with the itemset-mining substrate, the
//! paper's four baselines, and the full experiment harness.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`data`] ([`twoview_data`]) — two-view datasets, bitmaps, I/O and the
//!   synthetic corpus mirroring the paper's 14 evaluation datasets;
//! * [`mining`] ([`twoview_mining`]) — ECLAT, closed itemset mining,
//!   two-view candidate generation, and the [`CandidateCache`] serving
//!   substrate;
//! * [`core`] ([`twoview_core`]) — translation rules/tables, the TRANSLATE
//!   scheme, MDL scoring, the three TRANSLATOR algorithms, and the
//!   session-oriented [`Engine`];
//! * [`baselines`] ([`twoview_baselines`]) — association rules,
//!   significant-rule discovery, redescription mining, KRIMP;
//! * [`eval`] ([`twoview_eval`]) — metrics and the runners regenerating
//!   every table and figure of the paper;
//! * [`runtime`] ([`twoview_runtime`]) — the persistent worker pool behind
//!   every parallel hot path plus the priority-aware [`JobQueue`] the
//!   engine schedules on (`TWOVIEW_RUNTIME_THREADS` overrides the
//!   process-wide thread default).
//!
//! ## Quickstart: the `Engine` serving session
//!
//! The paper's workflow is *mine once, then induce and query many ways*.
//! [`Engine`] owns the dataset, mines the candidate substrate once at
//! construction, and serves fits and queries as concurrent, prioritized,
//! cancellable jobs:
//!
//! ```
//! use twoview::prelude::*;
//!
//! // Two views over the same objects: weather conditions vs activities.
//! let vocab = Vocabulary::new(
//!     ["rainy", "sunny", "windy"],
//!     ["umbrella", "sunglasses", "kite"],
//! );
//! let data = TwoViewDataset::from_transactions(
//!     vocab,
//!     &[
//!         vec![0, 3],       // rainy -> umbrella
//!         vec![0, 3],
//!         vec![0, 2, 3, 5], // rainy+windy -> umbrella+kite
//!         vec![1, 4],       // sunny -> sunglasses
//!         vec![1, 4],
//!         vec![1, 2, 4, 5],
//!     ],
//! );
//!
//! // Mine once; the engine caches candidates + seed tidsets.
//! let engine = Engine::builder().dataset(data).minsup(1).build()?;
//!
//! // Fit a translation table with TRANSLATOR-SELECT(1) as a job.
//! let model = engine
//!     .fit(Algorithm::Select(SelectConfig::builder().k(1).build()))
//!     .join()?;
//! assert!(model.compression_pct() < 100.0);
//! for rule in model.table.iter() {
//!     println!("{}", rule.display(engine.dataset().vocab()));
//! }
//!
//! // Query it: translate the left view, at interactive priority.
//! let translated = engine.translate(model.table.clone(), Side::Left).join()?;
//! assert_eq!(translated.len(), engine.dataset().n_transactions());
//! # Ok::<(), twoview::Error>(())
//! ```
//!
//! The free functions ([`translator_select`](prelude::translator_select)
//! & co.) remain for one-shot scripts; they mine per call. Configs are
//! built fluently (`SelectConfig::builder().k(1).minsup(5).threads(2)
//! .build()`); the old positional constructors are gone — every config
//! goes through its builder.
//!
//! ## Migration (pre-`Engine` API → 0.2)
//!
//! | old (removed) | new |
//! |---|---|
//! | `SelectConfig::new(k, m)` | `SelectConfig::builder().k(k).minsup(m).build()` |
//! | `GreedyConfig::new(m)` | `GreedyConfig::builder().minsup(m).build()` |
//! | `MinerConfig::with_minsup(m)` | `MinerConfig::builder().minsup(m).build()` |
//! | `ExactConfig { max_nodes: Some(n), ..Default::default() }` | `ExactConfig::builder().max_nodes(n).build()` |
//! | `translator_select(&d, &cfg)` per call | `Engine::builder().dataset(d).build()?` once, then `engine.fit(Algorithm::Select(cfg)).join()?` |
//! | `translate::correction_row(&d, &t, from, i)` | `translate::correction_rows(&d, &t, from)[i]` (batched) |
//! | `evaluate_table(&d, &t)` on a serving path | `engine.evaluate(t).join()?` |
//! | panicking I/O paths | `Result<_, twoview::Error>` end to end |

#![forbid(unsafe_code)]

pub use twoview_baselines as baselines;
pub use twoview_core as core;
pub use twoview_data as data;
pub use twoview_eval as eval;
pub use twoview_mining as mining;
pub use twoview_runtime as runtime;

#[doc(inline)]
pub use twoview_core::{Engine, EngineBuilder, EngineStats, Error};
#[doc(inline)]
pub use twoview_mining::CandidateCache;
#[doc(inline)]
pub use twoview_runtime::{
    AdmissionPolicy, Deadline, JobHandle, JobQueue, JobStatus, Priority, RetryPolicy,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use twoview_core::engine::{fit, Algorithm};
    pub use twoview_core::{
        evaluate_table, translator_exact, translator_exact_seeded, translator_exact_with,
        translator_greedy, translator_select, CodeLengths, CoverState, Direction, Engine,
        EngineBuilder, EngineStats, Error, ExactConfig, GreedyConfig, ModelScore, SelectConfig,
        TranslationRule, TranslationTable, TranslatorModel,
    };
    pub use twoview_data::prelude::*;
    pub use twoview_mining::{mine_closed_twoview, CandidateCache, MinerConfig, TwoViewCandidate};
    pub use twoview_runtime::{
        AdmissionPolicy, CancellationToken, Deadline, JobError, JobHandle, JobOptions, JobStatus,
        JobTimings, Priority, QueueConfig, QueueStats, RetryPolicy,
    };
}
