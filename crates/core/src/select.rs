//! TRANSLATOR-SELECT(k) (paper Algorithm 3).
//!
//! Instead of searching the full pattern space every iteration, SELECT
//! scores a *fixed* candidate set — closed frequent two-view itemsets — and
//! repeatedly adds the top-k rules (three candidate rules per itemset, one
//! per direction). Rules whose itemsets overlap a rule already added in the
//! same iteration are discarded, because their gain may have decreased; for
//! *disjoint* rules the gain is provably unchanged, which also yields the
//! exact gain-cache used here: a candidate's cached gains stay valid until
//! a rule touching one of its items is applied.
//!
//! Each round refreshes exactly the dirty candidates with
//! [`CoverState::pair_gains`]: serially for short work lists, and above
//! the refresh floor in parallel over chunks of the dirty-index work list
//! through the persistent [`twoview_runtime`] pool
//! ([`Runtime::map_chunks`] — results merged in submission order), with
//! every worker reading the shared `&CoverState`. The outcome is identical
//! for any thread count. SELECT does not consult the rule bound `rub`:
//! with the columnar gain kernel, checking the bound cost about as much as
//! the evaluation it skipped, so the bound is left to EXACT's search
//! (measurements in the README's *Performance* section).
//!
//! [`Runtime::map_chunks`]: twoview_runtime::Runtime::map_chunks

use twoview_data::prelude::*;
use twoview_mining::{mine_closed_twoview, mine_frequent_twoview, MinerConfig, TwoViewCandidate};
use twoview_runtime::obs;
use twoview_runtime::{JobCtx, JobError};

/// Process-wide registry cells for SELECT internals (`select.*` names):
/// each run folds its per-run counters in once at the end, so the hot
/// refresh loop touches plain locals and [`SelectStats`] stays the
/// per-run view of exactly the same numbers.
struct SelectMetrics {
    runs: obs::Counter,
    iterations: obs::Counter,
    refreshes: obs::Counter,
}

fn select_metrics() -> &'static SelectMetrics {
    static METRICS: std::sync::OnceLock<SelectMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SelectMetrics {
        runs: obs::counter("select.runs"),
        iterations: obs::counter("select.iterations"),
        refreshes: obs::counter("select.refreshes"),
    })
}

use crate::bounds;
use crate::cover::CoverState;
use crate::model::{score_of, TraceStep, TranslatorModel};
use crate::rule::{Direction, TranslationRule};

/// Configuration for TRANSLATOR-SELECT.
#[derive(Clone, Debug)]
pub struct SelectConfig {
    /// Number of rules selected per iteration (`k` in the paper; `k = 1`
    /// adds the single best candidate rule each round).
    pub k: usize,
    /// Minimum support for candidate mining.
    pub minsup: usize,
    /// Mine closed candidates (the paper's choice) or all frequent ones
    /// (ablation; larger candidate sets, marginally better compression).
    pub closed_candidates: bool,
    /// Candidate-count safety valve.
    pub max_candidates: usize,
    /// Use the disjointness-based gain cache (result-identical; ablation
    /// switch measures its speedup, and tests use `false` as the
    /// refresh-everything reference).
    pub gain_cache: bool,
    /// Worker threads for the gain refresh and candidate mining. `None` =
    /// the process default ([`twoview_runtime::configured_threads`]:
    /// `TWOVIEW_RUNTIME_THREADS` or one per available core); `Some(1)` =
    /// single-threaded. The model is identical for any value.
    pub n_threads: Option<usize>,
    /// Iteration safety valve (`None` = run to convergence).
    pub max_iterations: Option<usize>,
}

impl SelectConfig {
    /// Fluent builder with paper-default settings: `SELECT(1)` at
    /// `minsup = 1`, closed candidates, gain cache on.
    pub fn builder() -> SelectConfigBuilder {
        SelectConfigBuilder {
            cfg: SelectConfig {
                k: 1,
                minsup: 1,
                closed_candidates: true,
                max_candidates: 2_000_000,
                gain_cache: true,
                n_threads: None,
                max_iterations: None,
            },
        }
    }
}

/// Fluent builder for [`SelectConfig`]; see [`SelectConfig::builder`].
#[derive(Clone, Debug)]
pub struct SelectConfigBuilder {
    cfg: SelectConfig,
}

impl SelectConfigBuilder {
    /// Rules selected per iteration (clamped to at least 1).
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k.max(1);
        self
    }

    /// Minimum support for candidate mining (clamped to at least 1).
    pub fn minsup(mut self, minsup: usize) -> Self {
        self.cfg.minsup = minsup.max(1);
        self
    }

    /// Closed candidates (the paper's choice) vs all frequent itemsets.
    pub fn closed_candidates(mut self, closed: bool) -> Self {
        self.cfg.closed_candidates = closed;
        self
    }

    /// Candidate-count safety valve.
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.cfg.max_candidates = n;
        self
    }

    /// Disjointness-based gain cache (result-identical ablation switch).
    pub fn gain_cache(mut self, on: bool) -> Self {
        self.cfg.gain_cache = on;
        self
    }

    /// Worker threads for refresh and mining (`Some(t)` semantics).
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.n_threads = Some(t);
        self
    }

    /// Inherit the process-default thread count (the default).
    pub fn default_threads(mut self) -> Self {
        self.cfg.n_threads = None;
        self
    }

    /// Iteration safety valve.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.cfg.max_iterations = Some(n);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SelectConfig {
        self.cfg
    }
}

/// Counters reported by one SELECT run (perfsuite / diagnostics).
#[derive(Clone, Debug, Default)]
pub struct SelectStats {
    /// Always 0: SELECT no longer prunes refreshes with the `rub` bound.
    /// Kept so existing readers of the counter still compile.
    pub rub_prunes: usize,
    /// Exact gain evaluations performed.
    pub refreshes: usize,
    /// Iterations of the outer selection loop.
    pub iterations: usize,
    /// Always 0: SELECT maintains no bound state. Kept so existing
    /// readers of the timer still compile.
    pub bound_maintain_ms: f64,
}

/// Runs TRANSLATOR-SELECT(k): mines candidates, then fits.
pub fn translator_select(data: &TwoViewDataset, cfg: &SelectConfig) -> TranslatorModel {
    let mut miner_cfg = MinerConfig::builder().minsup(cfg.minsup).build();
    miner_cfg.max_itemsets = cfg.max_candidates;
    miner_cfg.n_threads = cfg.n_threads;
    let mined = if cfg.closed_candidates {
        mine_closed_twoview(data, &miner_cfg)
    } else {
        mine_frequent_twoview(data, &miner_cfg)
    };
    let mut model = translator_select_candidates(data, cfg, &mined.candidates);
    model.truncated |= mined.truncated;
    model
}

/// Exact gains of one candidate, from its cached tidsets when present
/// (shared with EXACT's seed refresh).
pub(crate) fn candidate_gains(
    state: &CoverState<'_>,
    cand: &TwoViewCandidate,
    tids: Option<&(Tidset, Tidset)>,
) -> [f64; 3] {
    match tids {
        Some((lt, rt)) => state.pair_gains(&cand.left, &cand.right, lt, rt),
        None => {
            let data = state.data();
            let (lt, rt) = (data.support_set(&cand.left), data.support_set(&cand.right));
            state.pair_gains(&cand.left, &cand.right, &lt, &rt)
        }
    }
}

/// Runs SELECT(k) over a pre-mined candidate set (benchmarks reuse mined
/// candidates across configurations).
pub fn translator_select_candidates(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
) -> TranslatorModel {
    match run_select(data, cfg, candidates, None, None, None) {
        Ok(model) => model,
        // Without a job context there is no cancellation source.
        Err(_) => unreachable!("uncancellable run cannot be cancelled"),
    }
}

/// [`translator_select_candidates`] with run counters reported through
/// `stats` (iteration and refresh counts).
pub fn translator_select_candidates_with_stats(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
    stats: &mut SelectStats,
) -> TranslatorModel {
    match run_select(data, cfg, candidates, None, None, Some(stats)) {
        Ok(model) => model,
        Err(_) => unreachable!("uncancellable run cannot be cancelled"),
    }
}

/// Where a refresh finds a candidate's tidsets.
enum TidSource<'a> {
    /// Pre-computed slice aligned with the *original* candidate indices
    /// (the engine's shared seed-tidset cache).
    Shared(&'a [(Tidset, Tidset)]),
    /// Per-run cache aligned with the *live* (qub-surviving) positions;
    /// `None` entries mean over-budget, recompute on use.
    Owned(Vec<Option<(Tidset, Tidset)>>),
}

impl TidSource<'_> {
    #[inline]
    fn get(&self, live_pos: usize, orig_idx: usize) -> Option<&(Tidset, Tidset)> {
        match self {
            TidSource::Shared(all) => Some(&all[orig_idx]),
            TidSource::Owned(cache) => cache[live_pos].as_ref(),
        }
    }
}

/// Builds a per-run seed-tidset cache under the shared byte budget —
/// [`twoview_mining::build_seed_tidsets`]'s metering, reshaped to the
/// per-slot `Option`s the refresh paths consume (`None` everywhere =
/// over budget, recompute per refresh). Shared with EXACT's seed cache
/// so the two budgets cannot drift apart.
pub(crate) fn build_owned_tids(
    data: &TwoViewDataset,
    live: &[&TwoViewCandidate],
) -> Vec<Option<(Tidset, Tidset)>> {
    match twoview_mining::build_seed_tidsets(data, live.iter().copied()) {
        Some(tids) => tids.into_iter().map(Some).collect(),
        None => vec![None; live.len()],
    }
}

/// The full SELECT(k) loop over a pre-mined candidate set, with optional
/// shared tidsets (`shared_tids`, aligned with `candidates`), an
/// optional job context for cooperative cancellation and progress ticks
/// (one tick per iteration), and optional run counters. Cancellation
/// returns `Err(JobError::Cancelled)` — never a partial model — so every
/// `Ok` result is bit-identical to an uncancelled serial run.
pub(crate) fn run_select(
    data: &TwoViewDataset,
    cfg: &SelectConfig,
    candidates: &[TwoViewCandidate],
    shared_tids: Option<&[(Tidset, Tidset)]>,
    ctl: Option<&JobCtx>,
    stats_out: Option<&mut SelectStats>,
) -> Result<TranslatorModel, JobError> {
    if let Some(tids) = shared_tids {
        debug_assert_eq!(tids.len(), candidates.len());
    }
    let mut run_span = obs::span("select.run");
    run_span
        .field("k", cfg.k)
        .field("n_candidates", candidates.len());
    let mut state = CoverState::new(data);
    let mut trace = Vec::new();

    // Permanent prefilter: `qub` depends only on supports and code lengths,
    // never on the cover state, and dominates all three directional gains.
    // Candidates with `qub ≤ 0` can never be added in any iteration and are
    // dropped up front.
    let live_idx: Vec<usize> = {
        let codes = state.codes();
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| bounds::qub(codes, data, &c.left, &c.right) > 0.0)
            .map(|(i, _)| i)
            .collect()
    };
    let live: Vec<&TwoViewCandidate> = live_idx.iter().map(|&i| &candidates[i]).collect();

    // Tidsets: the caller's shared cache when provided, otherwise a
    // per-run cache when the memory budget allows (actual representation
    // bytes metered as the cache is built; over budget = recompute on
    // every refresh). The budget is the workspace-wide
    // `twoview_mining::TIDSET_CACHE_BUDGET_BYTES`.
    let tids = match shared_tids {
        Some(all) => TidSource::Shared(all),
        None => TidSource::Owned(build_owned_tids(data, &live)),
    };

    // Cached per-candidate gains, one per direction (Direction::ALL order).
    // `dirty` marks stale caches.
    let mut gains: Vec<[f64; 3]> = vec![[f64::NEG_INFINITY; 3]; live.len()];
    let mut dirty: Vec<bool> = vec![true; live.len()];
    let mut n_refreshes = 0usize;

    let n_workers = twoview_runtime::resolve_threads(cfg.n_threads);
    // The parallel refresh pays off once a round touches enough dirty
    // candidates; explicitly configured thread counts lower the bar so
    // small differential tests still exercise the parallel merge path.
    let refresh_floor = if cfg.n_threads.is_some() { 16 } else { 256 };

    let n_items = data.vocab().n_items();
    let mut iterations = 0usize;
    loop {
        // Cooperative cancellation: observed at iteration boundaries only,
        // so a run either completes (bit-identical to serial) or yields no
        // model at all. The fault point shares the boundary: an injected
        // panic can never leave a partial model either.
        if let Some(ctx) = ctl {
            twoview_runtime::faults::maybe_panic(
                twoview_runtime::faults::points::SELECT_CHECKPOINT_PANIC,
            );
            ctx.checkpoint()?;
            ctx.tick(1);
        }
        if let Some(cap) = cfg.max_iterations {
            if iterations >= cap {
                break;
            }
        }
        iterations += 1;

        // Refresh stale gains, in parallel for large work lists. The work
        // list holds dirty indices only: dirty candidates cluster (they
        // share items with the rules just applied, and mined candidates
        // with shared items are adjacent), so chunking the whole candidate
        // array would serialize the real work onto one or two workers.
        let work: Vec<usize> = (0..live.len())
            .filter(|&i| dirty[i] || !cfg.gain_cache)
            .collect();
        if n_workers > 1 && work.len() > refresh_floor {
            let (state, live, live_idx, tids) = (&state, &live, &live_idx, &tids);
            // Fine chunks are stolen dynamically, so uneven candidate costs
            // still balance; results come back in submission order, so the
            // model is identical to the serial path for any thread count.
            let chunk = work.len().div_ceil(4 * n_workers).max(16);
            let results =
                twoview_runtime::global().map_chunks(n_workers, &work, chunk, |_, idxs| {
                    idxs.iter()
                        .map(|&i| candidate_gains(state, live[i], tids.get(i, live_idx[i])))
                        .collect::<Vec<_>>()
                });
            for (&i, g) in work.iter().zip(results.into_iter().flatten()) {
                gains[i] = g;
                dirty[i] = false;
            }
        } else {
            for &i in &work {
                gains[i] = candidate_gains(&state, live[i], tids.get(i, live_idx[i]));
                dirty[i] = false;
            }
        }
        n_refreshes += work.len();

        // Top-k candidate rules by gain (strictly positive only).
        let mut entries: Vec<(f64, usize, Direction)> = Vec::new();
        for (idx, g) in gains.iter().enumerate() {
            for (gain, dir) in g.iter().zip(Direction::ALL) {
                if *gain > 0.0 {
                    entries.push((*gain, idx, dir));
                }
            }
        }
        if entries.is_empty() {
            break;
        }
        // Top-k selection: partition the k survivors to the front, then
        // sort only those — the entry list is up to 3·|candidates| long and
        // rebuilt every iteration, so a full sort is wasted work.
        let cmp = |a: &(f64, usize, Direction), b: &(f64, usize, Direction)| {
            b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        };
        if cfg.k > 0 && entries.len() > cfg.k {
            entries.select_nth_unstable_by(cfg.k - 1, cmp);
        }
        entries.truncate(cfg.k);
        entries.sort_by(cmp);

        // Add the selected rules, skipping overlaps within this round.
        let mut used = Bitmap::new(n_items);
        let mut added = false;
        for (gain, idx, dir) in entries {
            let cand = live[idx];
            let overlaps = cand
                .left
                .iter()
                .chain(cand.right.iter())
                .any(|i| used.contains(i as usize));
            if overlaps {
                continue; // gain may have decreased; retry next iteration
            }
            // Disjoint from everything added this round => cached gain is
            // still exact, and it is positive by construction.
            let rule = TranslationRule::new(cand.left.clone(), cand.right.clone(), dir);
            state.apply_rule(rule.clone());
            trace.push(TraceStep::capture(&state, rule, gain));
            for i in cand.left.iter().chain(cand.right.iter()) {
                used.insert(i as usize);
            }
            added = true;
        }
        if !added {
            break;
        }

        // Invalidate candidates touching any item used this round.
        for (idx, cand) in live.iter().enumerate() {
            if cand
                .left
                .iter()
                .chain(cand.right.iter())
                .any(|i| used.contains(i as usize))
            {
                dirty[idx] = true;
            }
        }
    }

    // One registry fold per run; `SelectStats` reports the same locals.
    let metrics = select_metrics();
    metrics.runs.incr();
    metrics.iterations.add(iterations as u64);
    metrics.refreshes.add(n_refreshes as u64);
    run_span
        .field("iterations", iterations)
        .field("refreshes", n_refreshes);
    drop(run_span);
    if let Some(s) = stats_out {
        *s = SelectStats {
            refreshes: n_refreshes,
            iterations,
            ..SelectStats::default()
        };
    }
    let score = score_of(&state);
    Ok(TranslatorModel {
        table: state.into_table(),
        score,
        trace,
        n_candidates: candidates.len(),
        truncated: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structured() -> TwoViewDataset {
        let vocab = Vocabulary::new(["a", "b", "c"], ["x", "y", "z"]);
        TwoViewDataset::from_transactions(
            vocab,
            &[
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4],
                vec![0, 1, 3, 4, 5],
                vec![0, 1, 2, 3, 4],
                vec![2, 5],
                vec![2, 5],
                vec![0, 5],
            ],
        )
    }

    #[test]
    fn select1_compresses_and_traces() {
        let d = structured();
        let model = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        assert!(!model.table.is_empty());
        assert!(model.compression_pct() < 100.0);
        assert_eq!(model.trace.len(), model.table.len());
        assert!(model.n_candidates > 0);
        let mut prev = f64::INFINITY;
        for step in &model.trace {
            assert!(step.l_total < prev);
            prev = step.l_total;
        }
    }

    #[test]
    fn gain_cache_is_result_identical() {
        let d = structured();
        let with = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        let without = translator_select(
            &d,
            &SelectConfig {
                gain_cache: false,
                ..SelectConfig::builder().k(1).minsup(1).build()
            },
        );
        assert_eq!(with.table, without.table);
        assert!((with.score.l_total - without.score.l_total).abs() < 1e-9);
    }

    #[test]
    fn thread_count_is_result_identical() {
        let d = structured();
        let one = translator_select(
            &d,
            &SelectConfig {
                n_threads: Some(1),
                ..SelectConfig::builder().k(2).minsup(1).build()
            },
        );
        let four = translator_select(
            &d,
            &SelectConfig {
                n_threads: Some(4),
                ..SelectConfig::builder().k(2).minsup(1).build()
            },
        );
        assert_eq!(one.table, four.table);
        assert!((one.score.l_total - four.score.l_total).abs() < 1e-9);
    }

    #[test]
    fn pool_path_matches_serial_path() {
        // A corpus big enough to clear the explicit-thread refresh floor,
        // so the pool refresh really runs.
        use twoview_data::synthetic::{self, StructureSpec, SyntheticSpec};
        let spec = SyntheticSpec {
            name: "pool-vs-serial".into(),
            n_transactions: 200,
            n_left: 12,
            n_right: 10,
            density_left: 0.3,
            density_right: 0.3,
            structure: StructureSpec::strong(3),
            seed: 5,
        };
        let d = synthetic::generate(&spec).expect("valid spec").dataset;
        let cfg = |threads| SelectConfig {
            n_threads: Some(threads),
            ..SelectConfig::builder().k(2).minsup(2).build()
        };
        let serial = translator_select(&d, &cfg(1));
        for threads in [2, 4] {
            let pool = translator_select(&d, &cfg(threads));
            assert_eq!(serial.table, pool.table, "pool, {threads} threads");
            assert!((serial.score.l_total - pool.score.l_total).abs() < 1e-9);
        }
    }

    #[test]
    fn k25_reaches_similar_compression() {
        let d = structured();
        let k1 = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        let k25 = translator_select(&d, &SelectConfig::builder().k(25).minsup(1).build());
        // Larger k trades optimality for speed; on this toy data the
        // compression must stay in the same ballpark.
        assert!(k25.compression_pct() <= k1.compression_pct() + 10.0);
    }

    #[test]
    fn rules_added_within_round_are_item_disjoint() {
        let d = structured();
        let model = translator_select(&d, &SelectConfig::builder().k(25).minsup(1).build());
        // Reconstruct rounds from the trace: within a round (same
        // iteration), itemsets must be disjoint. We can't see iteration
        // boundaries directly, so check the stronger per-model invariant
        // used by the paper's example tables: no rule duplicated.
        let mut seen = std::collections::HashSet::new();
        for rule in model.table.iter() {
            assert!(seen.insert((rule.left.clone(), rule.right.clone(), rule.direction)));
        }
    }

    #[test]
    fn minsup_one_matches_exact_on_easy_data() {
        // On data with one dominant association, SELECT(1) finds the same
        // first rule as EXACT.
        let d = structured();
        let select = translator_select(&d, &SelectConfig::builder().k(1).minsup(1).build());
        let exact = crate::exact::translator_exact(&d);
        assert_eq!(select.table.rules()[0].left, exact.table.rules()[0].left);
        assert_eq!(select.table.rules()[0].right, exact.table.rules()[0].right);
    }

    #[test]
    fn max_iterations_caps_work() {
        let d = structured();
        let model = translator_select(
            &d,
            &SelectConfig {
                max_iterations: Some(1),
                ..SelectConfig::builder().k(1).minsup(1).build()
            },
        );
        assert!(model.table.len() <= 1);
    }

    #[test]
    fn empty_candidate_set_yields_empty_model() {
        let d = structured();
        let model =
            translator_select_candidates(&d, &SelectConfig::builder().k(1).minsup(1).build(), &[]);
        assert!(model.table.is_empty());
        assert!((model.compression_pct() - 100.0).abs() < 1e-9);
    }
}
