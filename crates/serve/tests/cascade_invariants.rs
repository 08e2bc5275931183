//! Cascade invariants: escalation is gated exactly by the stage margin,
//! cache hits are bitwise-stable, deep-stage failures degrade instead of
//! aborting, degradation is scoped to the batch that fell back, results
//! are bitwise identical at every thread cap, incremental blocking over
//! appends is bitwise a cold build, and the assembled pipeline works end
//! to end on generated relations.

use em_blocking::{
    full_cross_product, pair_set, Blocker, CandidatePair, CandidateSet, IndexConfig,
    QGramBlocker, RelationIndex, SortedNeighbourhood, TokenBlocker,
};
use em_core::{AttrValue, EmError, EvalBatch, LodoSplit, Matcher, Record, Result};
use em_lm::{
    EncoderClassifier, HashTokenizer, InferencePrecision, LlmTier, ModelConfig, PretrainedLlm,
    PromptBudget,
};
use em_matchers::{DemoStrategy, MatchGpt, StringSim};
use em_nn::threadpool;
use em_serve::{FrozenSlm, RecordStore, ScoreCache, ServePipeline, ServeReport, Stage};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Pairs everything with everything (tiny-test blocker).
struct All;

impl Blocker for All {
    fn candidates_indexed(
        &self,
        left: &em_blocking::RelationIndex,
        right: &em_blocking::RelationIndex,
    ) -> Vec<CandidatePair> {
        (0..left.len())
            .flat_map(|i| (0..right.len()).map(move |j| (i, j)))
            .collect()
    }

    fn candidates(&self, left: &[Record], right: &[Record]) -> Vec<CandidatePair> {
        full_cross_product(left, right)
    }
}

/// Scores a pair by parsing field `column` of the *left* record's
/// serialization — the test scripts exact scores into the data.
struct Scripted {
    column: usize,
    /// Serialized left sides of every pair this matcher scored.
    seen: Arc<Mutex<Vec<String>>>,
}

impl Scripted {
    fn new(column: usize) -> (Self, Arc<Mutex<Vec<String>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        (
            Scripted {
                column,
                seen: seen.clone(),
            },
            seen,
        )
    }
}

impl Matcher for Scripted {
    fn name(&self) -> String {
        format!("Scripted[{}]", self.column)
    }
    fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
        Ok(())
    }
    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        Ok(self
            .predict_scores(batch)?
            .into_iter()
            .map(|s| s >= 0.5)
            .collect())
    }
    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        let mut seen = self.seen.lock().unwrap();
        batch
            .serialized
            .iter()
            .map(|p| {
                seen.push(p.left.to_string());
                p.left
                    .split(", ")
                    .nth(self.column)
                    .and_then(|f| f.parse::<f32>().ok())
                    .ok_or_else(|| EmError::Numeric(format!("unparseable script: {}", p.left)))
            })
            .collect()
    }
}

/// Always errors (a dead backend with no internal fallback).
struct Dead;

impl Matcher for Dead {
    fn name(&self) -> String {
        "Dead".into()
    }
    fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
        Ok(())
    }
    fn predict(&mut self, _batch: &EvalBatch) -> Result<Vec<bool>> {
        Err(EmError::Numeric("backend unreachable".into()))
    }
    fn predict_scores(&mut self, _batch: &EvalBatch) -> Result<Vec<f32>> {
        Err(EmError::Numeric("backend unreachable".into()))
    }
}

/// A hosted-style matcher with a fallback tier: while `down` is set it
/// answers every pair with the fallback score [`FALLBACK`] and reports
/// the call degraded; otherwise it scores like [`Scripted`].
struct Flaky {
    healthy: Scripted,
    down: Arc<AtomicBool>,
    degraded: bool,
}

const FALLBACK: f32 = 0.25;

impl Matcher for Flaky {
    fn name(&self) -> String {
        "Flaky".into()
    }
    fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
        Ok(())
    }
    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        Ok(self
            .predict_scores(batch)?
            .into_iter()
            .map(|s| s >= 0.5)
            .collect())
    }
    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        self.degraded = self.down.load(Ordering::SeqCst);
        if self.degraded {
            Ok(vec![FALLBACK; batch.len()])
        } else {
            self.healthy.predict_scores(batch)
        }
    }
    fn was_degraded(&self) -> bool {
        self.degraded
    }
}

/// Left records scripting (stage0, stage1) scores into two columns.
fn scripted_store(scores: &[(f32, f32)]) -> RecordStore {
    RecordStore::new(
        scores
            .iter()
            .enumerate()
            .map(|(i, &(s0, s1))| {
                Record::new(
                    i as u64,
                    vec![
                        AttrValue::from(format!("{s0}")),
                        AttrValue::from(format!("{s1}")),
                    ],
                )
            })
            .collect(),
    )
}

fn probe_store() -> RecordStore {
    RecordStore::new(vec![Record::new(
        999,
        vec![AttrValue::from("0"), AttrValue::from("0")],
    )])
}

#[test]
fn escalation_happens_exactly_below_the_margin() {
    // stage0 scores with confidences 0.8, 0.2, 0.04, 0.8, 0.1: at margin
    // 0.3 exactly the three low-confidence pairs must escalate.
    let scripted = [
        (0.9f32, 0.95f32), // confident match — stays
        (0.6, 0.9),        // low margin — escalates, flips harder
        (0.52, 0.1),       // low margin — escalates, flips to non-match
        (0.1, 0.5),        // confident non-match — stays
        (0.45, 0.8),       // low margin — escalates
    ];
    let left = scripted_store(&scripted);
    let right = probe_store();
    let (s0, seen0) = Scripted::new(0);
    let (s1, seen1) = Scripted::new(1);
    let mut pipe = ServePipeline::new(
        Box::new(All),
        vec![
            Stage::new("s0", Box::new(s0)).with_margin(0.3),
            Stage::new("s1", Box::new(s1)).with_margin(0.0),
        ],
    )
    .unwrap();
    let report = pipe.run(&left, &right).unwrap();

    assert_eq!(report.candidates, 5);
    assert_eq!(seen0.lock().unwrap().len(), 5, "stage0 scores everything");
    let escalated: Vec<String> = seen1.lock().unwrap().clone();
    assert_eq!(
        escalated.len(),
        3,
        "exactly the |2s-1| < 0.3 pairs escalate: {escalated:?}"
    );
    for left_text in &escalated {
        let s0: f32 = left_text.split(", ").next().unwrap().parse().unwrap();
        assert!(
            (2.0 * s0 - 1.0).abs() < 0.3,
            "escalated pair had confidence >= margin: {left_text}"
        );
    }
    assert_eq!(report.stages[0].escalated, 3);
    assert_eq!(report.stages[1].pairs_in, 3);

    // Final scores: stayers keep stage0, escalated pairs take stage1.
    for (p, &(s0, s1)) in report.pairs.iter().zip(&scripted) {
        let expect = if (2.0 * s0 - 1.0).abs() < 0.3 { s1 } else { s0 };
        assert_eq!(report.scores[p.0].to_bits(), expect.to_bits());
    }
    // Matches follow the deepest score.
    assert_eq!(
        pair_set(&report.matches),
        pair_set(&[(0, 0), (1, 0), (4, 0)])
    );
}

#[test]
fn cache_hits_return_bitwise_identical_scores_without_scoring() {
    let mk = |i: u64, t: &str| Record::new(i, vec![AttrValue::from(t)]);
    let left = RecordStore::new(vec![
        mk(0, "sony bravia tv 55"),
        mk(1, "canon powershot camera"),
        mk(2, "generic usb cable"),
    ]);
    let right = RecordStore::new(vec![
        mk(10, "sony bravia tv 55 inch"),
        mk(11, "kitchen blender pro"),
    ]);
    let mut pipe = ServePipeline::new(
        Box::new(All),
        vec![
            Stage::new("sim-a", Box::new(StringSim::new())).with_margin(0.9),
            Stage::new("sim-b", Box::new(StringSim::with_threshold(0.6).unwrap())),
        ],
    )
    .unwrap();

    let cold = pipe.run(&left, &right).unwrap();
    assert!(
        cold.stages.iter().map(|s| s.scored).sum::<usize>() > 0,
        "cold run must score"
    );
    let warm = pipe.run(&left, &right).unwrap();

    for (a, b) in cold.scores.iter().zip(&warm.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "cache must round-trip bitwise");
    }
    for stage in &warm.stages {
        assert_eq!(stage.scored, 0, "warm {}: no matcher calls", stage.name);
        assert_eq!(stage.cache_hits, stage.pairs_in);
        assert_eq!(stage.tokens, 0, "cache hits bill nothing");
    }
    assert_eq!(cold.matches, warm.matches);

    // Clearing the cache brings scoring back.
    pipe.clear_cache();
    let reheat = pipe.run(&left, &right).unwrap();
    assert!(reheat.stages.iter().map(|s| s.scored).sum::<usize>() > 0);
}

#[test]
fn deep_stage_failure_keeps_previous_scores() {
    let scripted = [(0.9f32, 0.0f32), (0.55, 0.0), (0.48, 0.0), (0.05, 0.0)];
    let left = scripted_store(&scripted);
    let right = probe_store();
    let (s0, _) = Scripted::new(0);
    let mut pipe = ServePipeline::new(
        Box::new(All),
        vec![
            Stage::new("s0", Box::new(s0)).with_margin(0.3),
            Stage::new("dead", Box::new(Dead)),
        ],
    )
    .unwrap();
    let report = pipe.run(&left, &right).unwrap();
    assert!(report.stages[1].errored, "dead stage must be flagged");
    // Every pair keeps its stage-0 score — including those that escalated
    // into the dead stage.
    for (p, &(s0, _)) in report.pairs.iter().zip(&scripted) {
        assert_eq!(report.scores[p.0].to_bits(), s0.to_bits());
    }
}

#[test]
fn first_stage_failure_is_fatal() {
    let left = scripted_store(&[(0.5, 0.5)]);
    let right = probe_store();
    let mut pipe =
        ServePipeline::new(Box::new(All), vec![Stage::new("dead", Box::new(Dead))]).unwrap();
    assert!(pipe.run(&left, &right).is_err());
}

#[test]
fn empty_cascade_is_rejected() {
    assert!(ServePipeline::new(Box::new(All), vec![]).is_err());
}

#[test]
fn end_to_end_on_generated_relations() {
    let rels = em_datagen::serve_relations(250, 250, 0.3, 42);
    let left = RecordStore::new(rels.left.clone());
    let right = RecordStore::new(rels.right.clone());
    let blocker = TokenBlocker {
        min_shared: 2,
        max_token_frequency: 0.05,
    };
    // Blocking must keep most true matches at this noise level.
    let truth = pair_set(&rels.matches);
    let candidates = blocker.candidates(&left.records(), &right.records());
    let found = candidates.iter().filter(|c| truth.contains(c)).count();
    assert!(
        found as f64 / truth.len() as f64 > 0.85,
        "blocking recall degenerated: {found}/{}",
        truth.len()
    );

    let mut pipe = ServePipeline::new(
        Box::new(blocker),
        vec![
            Stage::new("strsim", Box::new(StringSim::new())).with_margin(0.6),
            Stage::new("strsim-strict", Box::new(StringSim::with_threshold(0.55).unwrap())),
        ],
    )
    .unwrap();
    let report = pipe.run(&left, &right).unwrap();

    assert_eq!(report.candidates, candidates.len());
    assert_eq!(report.scores.len(), report.pairs.len());
    assert!(report.scores.iter().all(|s| (0.0..=1.0).contains(s)));
    let cand_set = pair_set(&report.pairs);
    assert!(report.matches.iter().all(|m| cand_set.contains(m)));
    assert!(report.reduction_ratio > 0.9, "{}", report.reduction_ratio);

    // The cascade's decisions must carry real signal on this workload.
    let tp = report.matches.iter().filter(|m| truth.contains(m)).count();
    let precision = tp as f64 / report.matches.len().max(1) as f64;
    let recall = tp as f64 / truth.len() as f64;
    assert!(
        precision > 0.5 && recall > 0.4,
        "cascade degenerated: P {precision:.2} R {recall:.2}"
    );
}

#[test]
fn cache_is_stage_scoped() {
    let mut c = ScoreCache::new();
    c.insert(7, 0, 5, 6, 0.25);
    c.insert(7, 1, 5, 6, 0.75);
    assert_eq!(c.get(7, 0, 5, 6), Some(0.25));
    assert_eq!(c.get(7, 1, 5, 6), Some(0.75));
    assert_eq!(c.len(), 2);
}

#[test]
fn serializer_variants_never_share_cached_scores() {
    // Regression: the cache used to be keyed by (stage, left_id, right_id)
    // only, so re-serving the *same record ids* under a different
    // serializer silently replayed scores computed under the old
    // serialization. The serializer fingerprint now participates in the
    // key: a variant run must re-score, not hit.
    let mk = |i: u64, a: &str, b: &str| {
        Record::new(i, vec![AttrValue::from(a), AttrValue::from(b)])
    };
    let recs_l = vec![
        mk(0, "sony bravia tv", "electronics"),
        mk(1, "canon powershot", "cameras"),
    ];
    let recs_r = vec![
        mk(10, "sony bravia tv 55", "electronics"),
        mk(11, "kitchen blender", "appliances"),
    ];
    let mut pipe = sim_pipeline(Box::new(All));

    let left = RecordStore::new(recs_l.clone());
    let right = RecordStore::new(recs_r.clone());
    let plain = pipe.run(&left, &right).unwrap();

    // Same ids, different serialization: `name: value` rendering.
    let names: Vec<String> = vec!["title".into(), "category".into()];
    let named = |recs: &[Record]| {
        RecordStore::with_serializer(
            recs.to_vec(),
            em_core::Serializer::identity(2).with_names(names.clone()),
        )
    };
    let variant = pipe.run(&named(&recs_l), &named(&recs_r)).unwrap();
    let variant_hits: usize = variant.stages.iter().map(|s| s.cache_hits).sum();
    let variant_scored: usize = variant.stages.iter().map(|s| s.scored).sum();
    assert_eq!(
        variant_hits, 0,
        "a different serialization must never answer from the old context"
    );
    assert_eq!(variant_scored, variant.candidates);
    assert!(
        variant
            .scores
            .iter()
            .zip(&plain.scores)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "variant run scored identically — the regression would be invisible"
    );

    // Legitimate reuse is untouched: the original stores still answer
    // fully from cache, bitwise.
    let warm = pipe.run(&left, &right).unwrap();
    for s in &warm.stages {
        assert_eq!(s.scored, 0, "warm {}: no matcher calls", s.name);
        assert_eq!(s.cache_hits, s.pairs_in);
    }
    for (a, b) in warm.scores.iter().zip(&plain.scores) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

fn sim_pipeline(blocker: Box<dyn Blocker>) -> ServePipeline {
    ServePipeline::new(
        blocker,
        vec![Stage::new("sim", Box::new(StringSim::new()))],
    )
    .unwrap()
}

#[test]
fn blocking_state_is_reused_while_stores_are_unchanged() {
    let mk = |i: u64, t: &str| Record::new(i, vec![AttrValue::from(t)]);
    let left = RecordStore::new(vec![mk(0, "sony tv"), mk(1, "canon camera")]);
    let right = RecordStore::new(vec![mk(10, "sony tv 55"), mk(11, "blender")]);
    let mut pipe = sim_pipeline(Box::new(All));

    let cold = pipe.run(&left, &right).unwrap();
    assert!(!cold.blocking_reused, "first run cannot reuse");
    let warm = pipe.run(&left, &right).unwrap();
    assert!(warm.blocking_reused, "unchanged stores must reuse");
    assert_eq!(cold.pairs, warm.pairs);
    for (a, b) in cold.scores.iter().zip(&warm.scores) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Explicit invalidation forces a rebuild with identical results.
    pipe.invalidate_blocking();
    let rebuilt = pipe.run(&left, &right).unwrap();
    assert!(!rebuilt.blocking_reused);
    assert_eq!(cold.pairs, rebuilt.pairs);
}

#[test]
fn append_invalidates_exactly_the_mutated_side() {
    let mk = |i: u64, t: &str| Record::new(i, vec![AttrValue::from(t)]);
    let left = RecordStore::new(vec![mk(0, "alpha widget one"), mk(1, "beta widget two")]);
    let mut right = RecordStore::new(vec![mk(10, "alpha widget one"), mk(11, "gamma gadget")]);
    let blocker = TokenBlocker {
        min_shared: 1,
        max_token_frequency: 1.0,
    };
    let mut pipe = sim_pipeline(Box::new(blocker));

    pipe.run(&left, &right).unwrap();
    right.append(vec![mk(12, "beta widget two")]);
    let after = pipe.run(&left, &right).unwrap();
    assert!(
        !after.blocking_reused,
        "a mutated store must invalidate the candidate set"
    );
    // The appended record participates: a fresh pipeline over the grown
    // stores produces exactly the same candidates and scores.
    let mut fresh = sim_pipeline(Box::new(blocker));
    let expect = fresh.run(&left, &right).unwrap();
    assert_eq!(after.pairs, expect.pairs);
    for (a, b) in after.scores.iter().zip(&expect.scores) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(
        after.pairs.iter().any(|&(_, j)| j == 2),
        "appended record never blocked: {:?}",
        after.pairs
    );

    // Unchanged again: the regrown state is reusable.
    let warm = pipe.run(&left, &right).unwrap();
    assert!(warm.blocking_reused);
    assert_eq!(warm.pairs, after.pairs);
}

#[test]
fn clones_do_not_alias_cached_blocking_state() {
    let mk = |i: u64, t: &str| Record::new(i, vec![AttrValue::from(t)]);
    let left = RecordStore::new(vec![mk(0, "alpha one"), mk(1, "beta two")]);
    let right = RecordStore::new(vec![mk(10, "alpha one")]);
    let mut pipe = sim_pipeline(Box::new(All));
    pipe.run(&left, &right).unwrap();

    // A clone has equal content but its own identity; mutating it must
    // not be mistaken for the original, nor the original for it.
    let mut grown = right.clone();
    grown.append(vec![mk(11, "beta two")]);
    let on_clone = pipe.run(&left, &grown).unwrap();
    assert!(!on_clone.blocking_reused);
    assert_eq!(on_clone.candidates, 4);
    let back = pipe.run(&left, &right).unwrap();
    assert!(!back.blocking_reused, "stale state for a different store");
    assert_eq!(back.candidates, 2);
}

#[test]
fn bounded_cache_evicts_and_rescoring_stays_correct() {
    // 6 candidate pairs through a capacity-4 cache: the warm run re-scores
    // the evicted pairs but every score stays bitwise-identical (the
    // matcher is deterministic), and evictions are counted.
    let mk = |i: u64, t: &str| Record::new(i, vec![AttrValue::from(t)]);
    let left = RecordStore::new(vec![
        mk(0, "sony bravia tv"),
        mk(1, "canon powershot"),
        mk(2, "usb cable"),
    ]);
    let right = RecordStore::new(vec![mk(10, "sony bravia tv 55"), mk(11, "blender pro")]);
    let mut pipe = sim_pipeline(Box::new(All)).with_cache_capacity(4);

    let cold = pipe.run(&left, &right).unwrap();
    assert_eq!(cold.candidates, 6);
    assert!(
        pipe.cache().evictions() >= 2,
        "6 insertions through capacity 4 must evict"
    );
    assert_eq!(pipe.cache().len(), 4);

    let warm = pipe.run(&left, &right).unwrap();
    let warm_scored: usize = warm.stages.iter().map(|s| s.scored).sum();
    let warm_hits: usize = warm.stages.iter().map(|s| s.cache_hits).sum();
    assert!(warm_scored > 0, "evicted pairs must be re-scored");
    assert!(warm_hits > 0, "retained pairs must hit");
    for (a, b) in cold.scores.iter().zip(&warm.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "eviction must never change scores");
    }
}

#[test]
fn warm_run_is_bitwise_when_capacity_is_not_exceeded() {
    let mk = |i: u64, t: &str| Record::new(i, vec![AttrValue::from(t)]);
    let left = RecordStore::new(vec![mk(0, "sony bravia tv"), mk(1, "canon powershot")]);
    let right = RecordStore::new(vec![mk(10, "sony bravia tv 55"), mk(11, "blender pro")]);
    // Capacity exactly covers the 4 scored pairs: no evictions, so the
    // warm run answers 100% from cache, like the unbounded cache would.
    let mut pipe = sim_pipeline(Box::new(All)).with_cache_capacity(4);
    let cold = pipe.run(&left, &right).unwrap();
    let warm = pipe.run(&left, &right).unwrap();
    assert_eq!(pipe.cache().evictions(), 0);
    for s in &warm.stages {
        assert_eq!(s.scored, 0);
        assert_eq!(s.cache_hits, s.pairs_in);
    }
    for (a, b) in cold.scores.iter().zip(&warm.scores) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn degraded_scores_are_never_cached() {
    // Regression: a stage that fell back to its cheaper tier used to cache
    // the fallback scores under its own key, so after the backend
    // recovered they were replayed as that stage's answers. A degraded run
    // must leave nothing in the cache for that stage; the healthy run
    // after it re-scores every pair.
    let scripted = [(0.6f32, 0.9f32), (0.55, 0.1), (0.45, 0.8)];
    let left = scripted_store(&scripted);
    let right = probe_store();
    let (s0, _) = Scripted::new(0);
    let (healthy, _) = Scripted::new(1);
    let down = Arc::new(AtomicBool::new(true));
    let flaky = Flaky {
        healthy,
        down: down.clone(),
        degraded: false,
    };
    let mut pipe = ServePipeline::new(
        Box::new(All),
        vec![
            // Every stage-0 score sits inside the margin: all escalate.
            Stage::new("s0", Box::new(s0)).with_margin(1.0),
            Stage::new("hosted", Box::new(flaky)),
        ],
    )
    .unwrap();

    let outage = pipe.run(&left, &right).unwrap();
    assert!(outage.stages[1].degraded, "outage must be flagged");
    assert_eq!(outage.stages[1].scored, scripted.len());
    assert!(outage.scores.iter().all(|&s| s == FALLBACK));

    down.store(false, Ordering::SeqCst);
    let recovered = pipe.run(&left, &right).unwrap();
    let hosted = &recovered.stages[1];
    assert!(!hosted.degraded);
    assert_eq!(hosted.cache_hits, 0, "fallback scores were cached");
    assert_eq!(hosted.scored, scripted.len(), "stage must re-score");
    // Healthy stages keep caching as before.
    assert_eq!(recovered.stages[0].cache_hits, scripted.len());
    for (p, &(_, s1)) in recovered.pairs.iter().zip(&scripted) {
        assert_eq!(recovered.scores[p.0].to_bits(), s1.to_bits());
    }
}

/// Lends a matcher to a pipeline while the test keeps a handle on it.
struct Shared<M>(Arc<Mutex<M>>);

impl<M: Matcher> Matcher for Shared<M> {
    fn name(&self) -> String {
        self.0.lock().unwrap().name()
    }
    fn fit(&mut self, split: &LodoSplit<'_>, seed: u64) -> Result<()> {
        self.0.lock().unwrap().fit(split, seed)
    }
    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        self.0.lock().unwrap().predict(batch)
    }
    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        self.0.lock().unwrap().predict_scores(batch)
    }
    fn was_degraded(&self) -> bool {
        self.0.lock().unwrap().was_degraded()
    }
}

/// A tiny untrained tier: deterministic weights, fast to build.
fn tiny_llm() -> Arc<PretrainedLlm> {
    let cfg = tiny_model_config();
    let budget = PromptBudget {
        max_seq: cfg.max_seq,
        demo_side: 5,
        query_side: 10,
    };
    Arc::new(PretrainedLlm::from_parts(
        LlmTier::Gpt4,
        EncoderClassifier::new(cfg, 5),
        HashTokenizer::new(cfg.vocab),
        budget,
    ))
}

#[test]
fn recovered_hosted_stage_reports_healthy_and_caches_its_scores() {
    // Regression: the hosted matcher's degraded flag was sticky until
    // `fit`, which serving never calls, so after the backend recovered
    // every run still reported the stage degraded and never cached its
    // real scores.
    let left = store("left", 6, 0);
    let right = store("right", 4, 100);
    let llm = tiny_llm();
    let hosted = Arc::new(Mutex::new(MatchGpt::with_resilience(
        llm.clone(),
        DemoStrategy::None,
        None,
        Box::new(StringSim::new()),
    )));
    let cascade = |hosted: Box<dyn Matcher>| {
        ServePipeline::new(
            Box::new(All),
            vec![
                Stage::new("strsim", Box::new(StringSim::new())).with_margin(1.0),
                Stage::new("hosted", hosted).priced(0.03),
            ],
        )
        .unwrap()
    };
    let mut pipe = cascade(Box::new(Shared(hosted.clone())));
    {
        let m = hosted.lock().unwrap();
        let client = m.resilient().unwrap();
        client.breaker().force_open(client.clock().now_ns());
    }
    let outage = pipe.run(&left, &right).unwrap();
    assert!(
        outage.stages[1].scored > 0,
        "pairs must reach the hosted stage"
    );
    assert!(outage.stages[1].degraded, "an open breaker must be flagged");

    // Past the breaker's cooldown the half-open probe succeeds.
    hosted
        .lock()
        .unwrap()
        .resilient()
        .unwrap()
        .clock()
        .advance_ms(60_000);
    let recovered = pipe.run(&left, &right).unwrap();
    assert!(
        !recovered.stages[1].degraded,
        "recovery must clear degradation"
    );
    assert_eq!(
        recovered.stages[1].cache_hits, 0,
        "fallback scores were cached"
    );
    // The recovered run scores exactly as a never-degraded cascade …
    let direct = MatchGpt::with_llm(llm, DemoStrategy::None);
    let healthy = cascade(Box::new(direct)).run(&left, &right).unwrap();
    let bits = |r: &ServeReport| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&recovered), bits(&healthy));
    assert_eq!(recovered.stages[1].scored, healthy.stages[1].scored);
    assert_eq!(recovered.stages[1].tokens, healthy.stages[1].tokens);
    // … and its hosted scores now answer from the cache.
    let warm = pipe.run(&left, &right).unwrap();
    assert_eq!(warm.stages[1].scored, 0);
    assert_eq!(warm.stages[1].cache_hits, warm.stages[1].pairs_in);
    assert!(!warm.stages[1].degraded);
}

/// What a [`Recording`] blocker saw: per probe, the prior extent
/// `(left_len, right_len)` the pipeline resumed from — `(0, 0)` is a cold
/// probe — and how often it fell back to `candidates_indexed`.
#[derive(Default)]
struct Log {
    priors: Vec<(usize, usize)>,
    cold_fallbacks: usize,
}

/// Delegates to a real blocker and records every probe in a [`Log`].
struct Recording {
    inner: Box<dyn Blocker>,
    log: Arc<Mutex<Log>>,
}

impl Recording {
    fn new(inner: Box<dyn Blocker>) -> (Self, Arc<Mutex<Log>>) {
        let log = Arc::new(Mutex::new(Log::default()));
        (
            Recording {
                inner,
                log: log.clone(),
            },
            log,
        )
    }
}

impl Blocker for Recording {
    fn required_features(&self) -> IndexConfig {
        self.inner.required_features()
    }
    fn candidates_indexed(
        &self,
        left: &RelationIndex,
        right: &RelationIndex,
    ) -> Vec<CandidatePair> {
        self.log.lock().unwrap().cold_fallbacks += 1;
        self.inner.candidates_indexed(left, right)
    }
    fn candidates_grown(
        &self,
        left: &RelationIndex,
        right: &RelationIndex,
        prior: &CandidateSet,
    ) -> Option<CandidateSet> {
        self.log
            .lock()
            .unwrap()
            .priors
            .push((prior.left_len(), prior.right_len()));
        self.inner.candidates_grown(left, right, prior)
    }
}

/// A two-stage priced StringSim cascade (so escalations, tokens and bills
/// are all exercised) over `blocker`.
fn growth_pipeline(blocker: Box<dyn Blocker>) -> ServePipeline {
    ServePipeline::new(
        blocker,
        vec![
            Stage::new("strsim", Box::new(StringSim::new()))
                .with_margin(0.6)
                .priced(0.001),
            Stage::new(
                "strsim-strict",
                Box::new(StringSim::with_threshold(0.55).unwrap()),
            )
            .priced(0.01),
        ],
    )
    .unwrap()
}

/// Everything a report decides, bitwise: pairs, score bits, matches and
/// every stage report except its wall-clock seconds.
fn decided(r: &ServeReport) -> String {
    let stages: Vec<String> = r
        .stages
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.seconds = 0.0;
            format!("{s:?}")
        })
        .collect();
    let bits: Vec<u32> = r.scores.iter().map(|s| s.to_bits()).collect();
    format!(
        "{} {:?} {:?} {:?} {:?}",
        r.candidates, r.pairs, bits, r.matches, stages
    )
}

/// The append schedule of the growth tests: `(left, right)` records added
/// per step, over relations of 240 × 260 records starting at 150 × 100.
const GROWTH_STEPS: [(usize, usize); 6] = [(0, 40), (0, 1), (30, 0), (20, 40), (0, 0), (40, 79)];

#[test]
fn long_lived_pipeline_over_appends_equals_cold_builds() {
    let rels = em_datagen::serve_relations(240, 260, 0.3, 11);
    let blockers: [(&str, fn() -> Box<dyn Blocker>); 3] = [
        ("token-serving", || {
            Box::new(TokenBlocker {
                min_shared: 2,
                max_token_frequency: 0.05,
            })
        }),
        ("token-loose", || {
            Box::new(TokenBlocker {
                min_shared: 2,
                max_token_frequency: 0.2,
            })
        }),
        ("qgram-strict", || {
            Box::new(QGramBlocker {
                q: 3,
                min_shared: 8,
                max_gram_frequency: 0.1,
            })
        }),
    ];
    for (name, blocker) in blockers {
        let (recording, log) = Recording::new(blocker());
        let mut long = growth_pipeline(Box::new(recording));
        // The twin sees the same history but drops its blocking state
        // before every run, so it always builds and probes cold.
        let mut twin = growth_pipeline(blocker());
        let mut left = RecordStore::new(rels.left[..150].to_vec());
        let mut right = RecordStore::new(rels.right[..100].to_vec());
        let mut last = long.run(&left, &right).unwrap();
        twin.run(&left, &right).unwrap();
        for (add_left, add_right) in GROWTH_STEPS {
            left.append(rels.left[left.len()..left.len() + add_left].to_vec());
            right.append(rels.right[right.len()..right.len() + add_right].to_vec());
            last = long.run(&left, &right).unwrap();
            assert_eq!(last.blocking_reused, add_left + add_right == 0);
            twin.invalidate_blocking();
            let cold = twin.run(&left, &right).unwrap();
            assert_eq!(
                decided(&last),
                decided(&cold),
                "{name}: incremental run diverged at {}×{}",
                left.len(),
                right.len()
            );
            assert_eq!(long.cache().entries(), twin.cache().entries(), "{name}");
        }
        assert_eq!((left.len(), right.len()), (240, 260));
        let resumed = log
            .lock()
            .unwrap()
            .priors
            .iter()
            .filter(|p| **p != (0, 0))
            .count();
        assert_eq!(
            resumed,
            GROWTH_STEPS.len() - 1,
            "{name}: every grown run but the unchanged one must resume"
        );

        // A fresh pipeline on the final stores decides exactly the same.
        let fresh = growth_pipeline(blocker()).run(&left, &right).unwrap();
        assert_eq!(last.pairs, fresh.pairs, "{name}");
        assert_eq!(last.matches, fresh.matches, "{name}");
        let bits = |r: &ServeReport| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&last), bits(&fresh), "{name}");
    }
}

#[test]
fn sorted_neighbourhood_pipeline_falls_back_to_cold_probes() {
    let rels = em_datagen::serve_relations(120, 120, 0.3, 5);
    let sn = || Box::new(SortedNeighbourhood { window: 6 });
    let (recording, log) = Recording::new(sn());
    let mut pipe = growth_pipeline(Box::new(recording));
    let left = RecordStore::new(rels.left.clone());
    let mut right = RecordStore::new(rels.right[..60].to_vec());
    pipe.run(&left, &right).unwrap();
    for step in 1..=3 {
        right.append(rels.right[right.len()..60 + 20 * step].to_vec());
        let grown = pipe.run(&left, &right).unwrap();
        assert_eq!(log.lock().unwrap().cold_fallbacks, step + 1);
        let fresh = growth_pipeline(sn()).run(&left, &right).unwrap();
        assert_eq!(grown.pairs, fresh.pairs, "at step {step}");
        assert_eq!(grown.matches, fresh.matches, "at step {step}");
        for (a, b) in grown.scores.iter().zip(&fresh.scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "at step {step}");
        }
    }
}

#[test]
fn appends_into_a_clone_never_resume() {
    let rels = em_datagen::serve_relations(80, 90, 0.3, 9);
    let blocker = TokenBlocker {
        min_shared: 1,
        max_token_frequency: 0.2,
    };
    let (recording, log) = Recording::new(Box::new(blocker));
    let mut pipe = growth_pipeline(Box::new(recording));
    let left = RecordStore::new(rels.left.clone());
    let mut right = RecordStore::new(rels.right[..60].to_vec());
    pipe.run(&left, &right).unwrap();

    // The clone holds the same 60 records, but it is another store: its
    // appends must not be mistaken for growth of the original.
    let mut clone = right.clone();
    clone.append(rels.right[60..75].to_vec());
    let on_clone = pipe.run(&left, &clone).unwrap();
    // Nor is the original, grown afterwards, growth of the clone.
    right.append(rels.right[60..90].to_vec());
    let on_original = pipe.run(&left, &right).unwrap();
    assert_eq!(
        log.lock().unwrap().priors,
        vec![(0, 0); 3],
        "only cold probes: no run may resume across store identities"
    );
    for (store, got) in [(&clone, &on_clone), (&right, &on_original)] {
        let fresh = growth_pipeline(Box::new(blocker))
            .run(&left, store)
            .unwrap();
        assert_eq!(got.pairs, fresh.pairs);
        assert_eq!(got.matches, fresh.matches);
    }

    // Growth of the store the pipeline last served does resume.
    right.append(rels.right[..5].to_vec());
    pipe.run(&left, &right).unwrap();
    assert_eq!(log.lock().unwrap().priors.last(), Some(&(80, 90)));
}

/// `n` one-attribute records `"{side} record {i}"`, ids from `id_base`.
fn store(side: &str, n: usize, id_base: u64) -> RecordStore {
    RecordStore::new(
        (0..n)
            .map(|i| {
                Record::new(
                    id_base + i as u64,
                    vec![AttrValue::from(format!("{side} record {i}"))],
                )
            })
            .collect(),
    )
}

fn tiny_model_config() -> ModelConfig {
    ModelConfig {
        vocab: 512,
        d_model: 16,
        n_layers: 1,
        n_heads: 2,
        ff_mult: 2,
        max_seq: 32,
        dropout: 0.0,
        claimed_params_millions: 0.1,
    }
}

/// Deterministic pair-level score: an FNV-style hash of both serialized
/// sides plus a per-stage salt, mapped into [0, 1]. Independent of batch
/// composition by construction.
struct HashScore {
    salt: u64,
}

impl Matcher for HashScore {
    fn name(&self) -> String {
        format!("HashScore[{}]", self.salt)
    }
    fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
        Ok(())
    }
    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        Ok(self
            .predict_scores(batch)?
            .into_iter()
            .map(|s| s >= 0.5)
            .collect())
    }
    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        Ok(batch
            .serialized
            .iter()
            .map(|p| {
                let mut h = self.salt ^ 0xcbf2_9ce4_8422_2325;
                for b in p.left.bytes().chain([0u8]).chain(p.right.bytes()) {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
                ((h >> 40) as f64 / (1u64 << 24) as f64) as f32
            })
            .collect())
    }
}

/// A priced cascade of hash matchers with the given margins.
fn hash_stages(margins: &[f64]) -> Vec<Stage> {
    margins
        .iter()
        .enumerate()
        .map(|(k, &m)| {
            Stage::new(format!("h{k}"), Box::new(HashScore { salt: k as u64 + 1 }))
                .with_margin(m)
                .priced(0.001 * (k as f64 + 1.0))
        })
        .collect()
}

/// A run's [`decided`] report, cache entries and eviction count.
type Outcome = (String, Vec<((u64, u32, u64, u64), u32)>, u64);

/// One cold run at a thread cap.
fn run_at(
    threads: usize,
    stages: Vec<Stage>,
    cache_cap: Option<usize>,
    left: &RecordStore,
    right: &RecordStore,
) -> Outcome {
    threadpool::set_max_threads(Some(threads));
    let mut pipe = ServePipeline::new(Box::new(All), stages).unwrap();
    if let Some(c) = cache_cap {
        pipe = pipe.with_cache_capacity(c);
    }
    let report = pipe.run(left, right);
    threadpool::set_max_threads(None);
    (
        decided(&report.unwrap()),
        pipe.cache().entries(),
        pipe.cache().evictions(),
    )
}

#[test]
fn thread_cap_never_changes_scores_reports_or_cache() {
    // 216 pairs through three stages: more pairs than one StringSim chunk
    // or SLM bucket, and a capacity-40 cache so the FIFO eviction sequence
    // is compared too.
    let left = store("left", 24, 0);
    let right = store("right", 9, 1000);
    for cap in [None, Some(40)] {
        let want = run_at(1, hash_stages(&[0.7, 0.4, 0.0]), cap, &left, &right);
        assert!(want.0.contains("h2"), "the workload must reach stage 3");
        for threads in [2, 8] {
            let got = run_at(threads, hash_stages(&[0.7, 0.4, 0.0]), cap, &left, &right);
            assert_eq!(got, want, "cache cap {cap:?}, {threads} threads");
        }
    }
}

#[test]
fn slm_cascade_is_thread_invariant_in_both_precisions() {
    // A real FrozenSlm tier (untrained tiny weights are deterministic)
    // behind a StringSim gate, with 8-pair buckets so several buckets run
    // at once: f32 and the int8 fast path alike.
    let cfg = tiny_model_config();
    let model = EncoderClassifier::new(cfg, 3);
    let tokenizer = HashTokenizer::new(cfg.vocab);
    let left = store("gadget alpha", 20, 0);
    let right = store("gadget beta", 10, 400);
    for precision in [InferencePrecision::Full, InferencePrecision::Int8] {
        let stages = || {
            let slm = FrozenSlm::new("slm-16d", model.clone(), tokenizer.clone())
                .with_precision(precision)
                .with_batch_size(8);
            vec![
                Stage::new("strsim", Box::new(StringSim::new())).with_margin(0.95),
                Stage::new("slm", Box::new(slm)).priced(0.002),
            ]
        };
        let want = run_at(1, stages(), None, &left, &right);
        assert!(
            want.1.iter().any(|((_, stage, _, _), _)| *stage == 1),
            "{precision:?}: the SLM stage must score something"
        );
        for threads in [2, 8] {
            let got = run_at(threads, stages(), None, &left, &right);
            assert_eq!(got, want, "{precision:?}, {threads} threads");
        }
    }
}

#[test]
fn a_stage_no_pair_reaches_gets_no_report() {
    // Margin 0 at stage 0: nothing escalates, so stage 1 never runs.
    let left = store("left", 8, 0);
    let right = store("right", 4, 300);
    let mut pipe = ServePipeline::new(Box::new(All), hash_stages(&[0.0, 0.5])).unwrap();
    let report = pipe.run(&left, &right).unwrap();
    assert_eq!(report.stages.len(), 1);
    assert_eq!(report.stages[0].escalated, 0);
}
