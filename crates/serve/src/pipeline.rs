//! The blocking → cascade serving pipeline.

use crate::cache::ScoreCache;
use crate::stage::Stage;
use crate::store::RecordStore;
use em_blocking::{
    metrics::reduction_ratio, Blocker, CandidatePair, CandidateSet, IndexConfig, RelationIndex,
};
use em_core::{run_chunks, EmError, EvalBatch, Result, SerializedPair};
use em_cost::estimate::{api_bill_for, ApiBill};
use std::sync::Arc;

/// Pairs per matcher call. Each call parallelizes internally over the
/// shared threadpool; this bounds the memory one call holds.
const BATCH_SIZE: usize = 512;

/// Index positions handled per parallel work item in the cache probe and
/// escalation sweeps.
const PAIR_CHUNK: usize = 4096;

/// What one cascade stage did during a run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Pairs that reached this stage.
    pub pairs_in: usize,
    /// Pairs actually scored by the matcher (cache misses).
    pub scored: usize,
    /// Pairs answered from the score cache.
    pub cache_hits: usize,
    /// Pairs escalated to the next stage.
    pub escalated: usize,
    /// `true` if the stage's matcher returned an error and the cascade
    /// kept the previous stage's scores for its pairs.
    pub errored: bool,
    /// `true` if the matcher reported internal degradation (e.g. a hosted
    /// client falling back after a tripped breaker).
    pub degraded: bool,
    /// Wall-clock seconds spent scoring at this stage.
    pub seconds: f64,
    /// Approximate tokens billed for the scored pairs.
    pub tokens: u64,
    /// The stage's bill at its configured price.
    pub bill: ApiBill,
}

impl StageReport {
    /// Scored pairs per second (cache hits excluded).
    pub fn pairs_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.scored as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Fraction of incoming pairs served from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.pairs_in > 0 {
            self.cache_hits as f64 / self.pairs_in as f64
        } else {
            0.0
        }
    }

    /// Fraction of incoming pairs escalated onward.
    pub fn escalation_fraction(&self) -> f64 {
        if self.pairs_in > 0 {
            self.escalated as f64 / self.pairs_in as f64
        } else {
            0.0
        }
    }
}

/// The result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Candidate pairs the blocker produced.
    pub candidates: usize,
    /// Blocking reduction ratio vs the full cross product.
    pub reduction_ratio: f64,
    /// Seconds spent in blocking: index build, or extension by the
    /// appended records of a grown store; the probe, resumed from the
    /// previous candidates when both stores only grew; pair
    /// serialization.
    pub blocking_seconds: f64,
    /// `true` when both stores were unchanged since the previous run and
    /// the candidate set (and its serialized view) was reused outright —
    /// no tokenization, no index build, no probe.
    pub blocking_reused: bool,
    /// Per-stage accounting, in cascade order.
    pub stages: Vec<StageReport>,
    /// The candidate pairs, aligned with `scores`.
    pub pairs: Vec<CandidatePair>,
    /// Final score per candidate pair (from the deepest stage that scored
    /// it).
    pub scores: Vec<f32>,
    /// Pairs declared matches (`score >= 0.5`).
    pub matches: Vec<CandidatePair>,
}

impl ServeReport {
    /// Total bill across stages.
    pub fn total_usd(&self) -> f64 {
        self.stages.iter().map(|s| s.bill.usd_total()).sum()
    }

    /// Fraction of candidates that escalated past stage 0 — the drift
    /// drill's degradation signal: rises as input quality drops.
    pub fn escalation_fraction(&self) -> f64 {
        match self.stages.first() {
            Some(s0) if self.candidates > 0 => s0.escalated as f64 / self.candidates as f64,
            _ => 0.0,
        }
    }

    /// `true` if any stage served degraded predictions this run.
    pub fn any_degraded(&self) -> bool {
        self.stages.iter().any(|s| s.degraded)
    }

    /// `true` if any stage errored (deep-stage failures that the cascade
    /// absorbed; stage-0 errors abort the run instead).
    pub fn any_errored(&self) -> bool {
        self.stages.iter().any(|s| s.errored)
    }
}

/// Blocking state carried between runs, keyed by the stores' identities.
///
/// Each side's [`RelationIndex`] stays valid while its store's
/// `(store_id, generation)` is unchanged; the candidate set and its
/// serialized view stay valid while *both* sides are unchanged. Stores
/// mutate only through `append`, so a side that keeps its `store_id` at a
/// later generation has grown: its indexed records are a prefix of the
/// store, and its index is extended in place rather than rebuilt. When
/// both sides kept their stores, the probe resumes from `candidates`
/// ([`Blocker::candidates_grown`]). A side that is a different store (a
/// new one, or a clone) is rebuilt, and the probe runs cold.
struct BlockSlot {
    left_key: (u64, u64),
    right_key: (u64, u64),
    /// Features the indexes were built with; must cover the blocker's
    /// requirement for the slot to be reusable.
    features: IndexConfig,
    left_index: RelationIndex,
    right_index: RelationIndex,
    candidates: Arc<CandidateSet>,
    serialized: Arc<Vec<SerializedPair>>,
}

/// `true` when a store keyed `now` is the store keyed `then`, possibly
/// grown by appends since.
fn same_store(then: (u64, u64), now: (u64, u64)) -> bool {
    then.0 == now.0 && now.1 >= then.1
}

/// A configured serving pipeline: blocker, matcher cascade, score cache.
///
/// Stages run cheap-first. Every candidate pair is scored by stage 0;
/// a pair escalates to stage `k + 1` only while its current confidence
/// `|2s − 1|` is below stage `k`'s margin. The deepest score wins. All
/// scoring is cached per `(serialization ctx, stage, left_id, right_id)`,
/// so a repeated run over the same stores returns bitwise-identical
/// scores without invoking any matcher — and, because blocking state is
/// cached per store generation, without re-blocking either; after an
/// append, blocking indexes only the appended records and re-probes only
/// what they can change. The ctx
/// component combines both stores' serializer fingerprints, so re-serving
/// the same ids under a different serialization re-scores instead of
/// replaying stale answers.
pub struct ServePipeline {
    blocker: Box<dyn Blocker>,
    stages: Vec<Stage>,
    cache: ScoreCache,
    slot: Option<BlockSlot>,
}

impl ServePipeline {
    /// Builds a pipeline. `stages` must be non-empty and ordered
    /// cheap-to-expensive.
    pub fn new(blocker: Box<dyn Blocker>, stages: Vec<Stage>) -> Result<Self> {
        if stages.is_empty() {
            return Err(EmError::Config("cascade needs at least one stage".into()));
        }
        Ok(ServePipeline {
            blocker,
            stages,
            cache: ScoreCache::new(),
            slot: None,
        })
    }

    /// Replaces the score cache with a bounded one (FIFO eviction past
    /// `capacity` entries). Drops any previously cached scores.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = ScoreCache::with_capacity(capacity);
        self
    }

    /// The score cache (for inspection; e.g. persisting between runs).
    pub fn cache(&self) -> &ScoreCache {
        &self.cache
    }

    /// Drops all cached scores.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Drops the cached blocking state, forcing the next run to rebuild
    /// both indexes and re-probe. Scores stay cached.
    pub fn invalidate_blocking(&mut self) {
        self.slot = None;
    }

    /// Blocking for one run: reuse the candidate set outright when both
    /// stores are unchanged; otherwise extend each grown side's index (a
    /// different store is indexed afresh), resume the probe from the
    /// previous candidates when both sides kept their stores, and
    /// serialize the candidates as `Arc<str>` views of the stores'
    /// pre-rendered texts. Returns `(candidates, serialized, reused)`.
    fn block(
        &mut self,
        left: &RecordStore,
        right: &RecordStore,
    ) -> Result<(Arc<CandidateSet>, Arc<Vec<SerializedPair>>, bool)> {
        let needed = self.blocker.required_features();
        let left_key = left.cache_key();
        let right_key = right.cache_key();
        let slot = self.slot.take().filter(|s| s.features.covers(&needed));
        if let Some(s) = slot.as_ref() {
            if s.left_key == left_key && s.right_key == right_key {
                em_obs::metrics::counter("serve.blocking_reused").inc();
                let reused = (Arc::clone(&s.candidates), Arc::clone(&s.serialized), true);
                self.slot = slot;
                return Ok(reused);
            }
        }

        let index = |kept: Option<RelationIndex>, store: &RecordStore| match kept {
            Some(mut ix) => {
                ix.extend(&store.records()[ix.len()..]);
                ix
            }
            None => RelationIndex::build(store.records(), &needed),
        };
        let (left_index, right_index, prior) = match slot {
            Some(s) => {
                let keep_left = same_store(s.left_key, left_key);
                let keep_right = same_store(s.right_key, right_key);
                let prior = if keep_left && keep_right {
                    s.candidates
                } else {
                    Arc::default()
                };
                (
                    index(keep_left.then_some(s.left_index), left),
                    index(keep_right.then_some(s.right_index), right),
                    prior,
                )
            }
            None => (index(None, left), index(None, right), Arc::default()),
        };
        let candidates = self
            .blocker
            .candidates_grown(&left_index, &right_index, &prior)
            .unwrap_or_else(|| {
                CandidateSet::new(
                    self.blocker.candidates_indexed(&left_index, &right_index),
                    left_index.len(),
                    right_index.len(),
                )
            });

        // Serialized views of the stores' pre-rendered texts: each pair is
        // two reference-count bumps, never a string copy.
        let chunks: Vec<&[CandidatePair]> = candidates.pairs().chunks(PAIR_CHUNK).collect();
        let serialized: Vec<SerializedPair> = run_chunks(&chunks, |chunk| {
            chunk
                .iter()
                .map(|&(i, j)| SerializedPair {
                    left: left.shared_text(i),
                    right: right.shared_text(j),
                })
                .collect::<Vec<_>>()
        })?
        .into_iter()
        .flatten()
        .collect();
        let (candidates, serialized) = (Arc::new(candidates), Arc::new(serialized));

        self.slot = Some(BlockSlot {
            left_key,
            right_key,
            features: needed,
            left_index,
            right_index,
            candidates: Arc::clone(&candidates),
            serialized: Arc::clone(&serialized),
        });
        Ok((candidates, serialized, false))
    }

    /// Runs blocking and the cascade over two stores.
    ///
    /// Stage-0 errors are fatal (there is no cheaper tier to answer).
    /// An error at a deeper stage degrades instead: the affected pairs
    /// keep the previous stage's scores, the stage is flagged in its
    /// report, and the run completes.
    ///
    /// Stage `k` finishes its whole active set before stage `k + 1`
    /// starts. The parallelism lives inside each stage: the cache probe
    /// and the escalation filter fan out in position bands, and every
    /// matcher call fans out over the shared threadpool (StringSim in
    /// pair chunks, the SLM across its length buckets). Scores, reports
    /// (modulo per-stage `seconds`) and cache contents are identical at
    /// every thread count.
    pub fn run(&mut self, left: &RecordStore, right: &RecordStore) -> Result<ServeReport> {
        let t_block = std::time::Instant::now();
        let (candidates, serialized, blocking_reused) = {
            let _span = em_obs::span!(
                "serve.blocking",
                left = left.len(),
                right = right.len()
            );
            self.block(left, right)?
        };
        let blocking_seconds = t_block.elapsed().as_secs_f64();
        // Serialization context of this run: scores cached under one
        // (left, right) serializer configuration must never answer for
        // another. Asymmetric combine so swapped stores differ too.
        let ctx = left
            .serializer_fingerprint()
            .rotate_left(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ right.serializer_fingerprint();
        let pairs_slice: &[CandidatePair] = candidates.pairs();
        em_obs::metrics::counter("serve.candidates").add(pairs_slice.len() as u64);
        let rr = reduction_ratio(pairs_slice.len(), left.len(), right.len());
        let serialized_slice: &[SerializedPair] = &serialized;

        let (reports, scores) = self.cascade(ctx, left, right, pairs_slice, serialized_slice)?;

        let matches: Vec<CandidatePair> = pairs_slice
            .iter()
            .zip(&scores)
            .filter_map(|(&p, &s)| (s >= 0.5).then_some(p))
            .collect();
        em_obs::metrics::counter("serve.matches").add(matches.len() as u64);

        Ok(ServeReport {
            candidates: pairs_slice.len(),
            reduction_ratio: rr,
            blocking_seconds,
            blocking_reused,
            stages: reports,
            pairs: pairs_slice.to_vec(),
            scores,
            matches,
        })
    }

    /// The cascade over one run's candidates: per stage, the cache probe,
    /// the scoring of the misses, the escalation filter.
    fn cascade(
        &mut self,
        ctx: u64,
        left: &RecordStore,
        right: &RecordStore,
        pairs_slice: &[CandidatePair],
        serialized_slice: &[SerializedPair],
    ) -> Result<(Vec<StageReport>, Vec<f32>)> {
        let mut scores = vec![0.0f32; pairs_slice.len()];
        let mut active: Vec<usize> = (0..pairs_slice.len()).collect();
        let mut reports: Vec<StageReport> = Vec::with_capacity(self.stages.len());
        let n_stages = self.stages.len();
        let cache = &mut self.cache;

        for (k, stage) in self.stages.iter_mut().enumerate() {
            if active.is_empty() {
                break;
            }
            let _span = em_obs::span!(
                "serve.stage",
                name = stage.name.as_str(),
                pairs = active.len()
            );
            let t0 = std::time::Instant::now();
            let pairs_in = active.len();

            // Cache pass, fanned out in fixed position bands (the cache
            // is read-shared; merge order is band order, so the result is
            // identical to the sequential sweep). Answered pairs skip the
            // matcher entirely.
            let probe_chunks: Vec<&[usize]> = active.chunks(PAIR_CHUNK).collect();
            let probed: Vec<(Vec<(usize, f32)>, Vec<usize>)> = {
                let cache_view: &ScoreCache = cache;
                run_chunks(&probe_chunks, |chunk| {
                    probe_chunk(cache_view, ctx, k as u32, left, right, pairs_slice, chunk)
                })?
            };
            let mut misses: Vec<usize> = Vec::new();
            let mut hits = 0u64;
            for (chunk_hits, chunk_misses) in probed {
                for (p, s) in chunk_hits {
                    scores[p] = s;
                    hits += 1;
                }
                misses.extend(chunk_misses);
            }
            em_obs::metrics::counter("serve.cache_hits").add(hits);

            // Batched scoring of the misses. Batches are sequential here
            // (the matcher needs `&mut`); each call parallelizes
            // internally over the shared threadpool.
            let Scoring {
                scored: scored_pairs,
                tokens,
                degraded,
                error: stage_err,
            } = score_misses(stage, &misses, serialized_slice);
            // Degraded scores came from a fallback tier, not this stage:
            // caching them under this stage's key would replay them as
            // this stage's answers after the backend recovers.
            for &(p, s) in &scored_pairs {
                scores[p] = s;
                if !degraded {
                    let (i, j) = pairs_slice[p];
                    cache.insert(ctx, k as u32, left.id(i), right.id(j), s);
                }
            }
            let scored = scored_pairs.len();
            em_obs::metrics::counter("serve.scored").add(scored as u64);
            let errored = match stage_err {
                None => false,
                // No cheaper tier exists to answer for stage-0 pairs:
                // the run cannot produce scores.
                Some(e) if k == 0 => return Err(e),
                Some(e) => {
                    em_obs::metrics::counter("serve.stage_errors").inc();
                    em_obs::event!(
                        warn,
                        "serve.stage_error",
                        stage = stage.name.as_str(),
                        cause = format!("{e}").as_str()
                    );
                    true
                }
            };

            // Escalation: pairs still inside the low-confidence band move
            // on, filtered in fixed position bands (pure read of the
            // score table; band-order merge keeps the sequential order).
            // An errored stage escalates nothing — unscored pairs keep
            // the previous stage's (final) answer.
            let escalated: Vec<usize> = if errored || k + 1 >= n_stages {
                Vec::new()
            } else {
                let margin = stage.margin;
                let scores_view: &[f32] = &scores;
                let esc_chunks: Vec<&[usize]> = active.chunks(PAIR_CHUNK).collect();
                run_chunks(&esc_chunks, |chunk| {
                    chunk
                        .iter()
                        .copied()
                        .filter(|&p| {
                            let confidence = (2.0 * scores_view[p] as f64 - 1.0).abs();
                            confidence < margin
                        })
                        .collect::<Vec<usize>>()
                })?
                .into_iter()
                .flatten()
                .collect()
            };
            em_obs::metrics::counter("serve.escalated").add(escalated.len() as u64);

            reports.push(StageReport {
                name: stage.name.clone(),
                pairs_in,
                scored,
                cache_hits: hits as usize,
                escalated: escalated.len(),
                errored,
                degraded,
                seconds: t0.elapsed().as_secs_f64(),
                tokens,
                bill: api_bill_for(tokens, 0, stage.usd_per_1k_tokens),
            });
            if errored {
                break;
            }
            active = escalated;
        }
        Ok((reports, scores))
    }
}

/// Splits one position band into cache hits and misses, preserving
/// position order on both sides.
fn probe_chunk(
    cache: &ScoreCache,
    ctx: u64,
    stage_idx: u32,
    left: &RecordStore,
    right: &RecordStore,
    pairs: &[CandidatePair],
    band: &[usize],
) -> (Vec<(usize, f32)>, Vec<usize>) {
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for &p in band {
        let (i, j) = pairs[p];
        match cache.get(ctx, stage_idx, left.id(i), right.id(j)) {
            Some(s) => hits.push((p, s)),
            None => misses.push(p),
        }
    }
    (hits, misses)
}

/// What [`score_misses`] produced for one stage.
struct Scoring {
    /// `(position, score)` results in miss order.
    scored: Vec<(usize, f32)>,
    /// The stage's exact-token bill for `scored`.
    tokens: u64,
    /// `true` if any matcher call served degraded scores.
    degraded: bool,
    /// The error, if any, that stopped scoring.
    error: Option<EmError>,
}

/// Scores `misses` in [`BATCH_SIZE`] chunks through the stage's matcher.
///
/// Results collected before an error are kept (partial progress). A
/// score-count mismatch is reported as a stage error (which stage 0
/// turns fatal). A matcher's degraded flag describes only its most
/// recent call, so it is read after every call: one degraded batch
/// keeps the whole stage's scores out of the cache.
fn score_misses(stage: &mut Stage, misses: &[usize], serialized: &[SerializedPair]) -> Scoring {
    let mut out = Scoring {
        scored: Vec::with_capacity(misses.len()),
        tokens: 0,
        degraded: false,
        error: None,
    };
    for batch_idx in misses.chunks(BATCH_SIZE) {
        // Batch assembly shares the run's serialized views — cloning a
        // pair is two reference-count bumps, never a string copy.
        let batch = EvalBatch {
            serialized: batch_idx.iter().map(|&p| serialized[p].clone()).collect(),
            raw: Vec::new(),
            attr_types: Vec::new(),
        };
        let result = stage.matcher.predict_scores(&batch);
        out.degraded |= stage.matcher.was_degraded();
        match result {
            Ok(batch_scores) if batch_scores.len() == batch_idx.len() => {
                out.tokens += stage.bill_exact_tokens(&batch);
                out.scored
                    .extend(batch_idx.iter().copied().zip(batch_scores));
            }
            Ok(batch_scores) => {
                out.error = Some(EmError::Numeric(format!(
                    "stage {} returned {} scores for {} pairs",
                    stage.name,
                    batch_scores.len(),
                    batch_idx.len()
                )));
                break;
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    out
}
