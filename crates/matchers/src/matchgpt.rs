//! MatchGPT (Peeters & Bizer, 2023): entity matching by prompting large
//! language models. The study evaluates six backends (three open-weight,
//! three OpenAI) with the `general-complex-force` zero-shot prompt, plus a
//! demonstration experiment (Table 4) with three strategies:
//!
//! * `None` — zero-shot, no demonstrations (the Table 3 configuration);
//! * `HandPicked` — three manually selected examples (two non-matching,
//!   one matching) from the transfer datasets; "manual" selection is
//!   simulated deterministically by picking *prototypical* examples (the
//!   clearest match and the clearest non-matches by string similarity),
//!   which is what a human annotator picks when asked for examples;
//! * `Random` — three randomly selected examples from the transfer pool.
//!
//! The underlying frozen models come from `em_lm::zoo` and are shared via
//! `Arc` so one pretrained tier serves all demonstration variants.

use crate::common::sample_transfer_pairs;
use em_core::{EmError, EvalBatch, LodoSplit, Matcher, Result};
use em_faults::FaultPlan;
use em_lm::{random_demonstrations, Demonstration, LlmTier, PretrainedLlm, ResilientLlm};
use std::sync::Arc;

/// Demonstration selection strategy (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemoStrategy {
    /// Zero-shot prompting.
    None,
    /// Three prototypical examples (1 match, 2 non-matches).
    HandPicked,
    /// Three random examples (1 match, 2 non-matches).
    Random,
}

impl DemoStrategy {
    /// Label as printed in Table 4.
    pub fn label(&self) -> &'static str {
        match self {
            DemoStrategy::None => "none",
            DemoStrategy::HandPicked => "hand-picked",
            DemoStrategy::Random => "random-selected",
        }
    }
}

/// The MatchGPT matcher: a frozen LLM tier plus a prompt policy.
///
/// The hosted backend is reached either directly (the historical path) or
/// through the [`ResilientLlm`] client of `em_lm::hosted`, which retries
/// transient API faults with backoff and trips a circuit breaker when the
/// backend looks dead. A matcher built with [`MatchGpt::with_resilience`]
/// then *degrades* instead of failing: the registered fallback matcher
/// (typically the string-similarity tier) answers, and the degradation is
/// reported through [`Matcher::was_degraded`] into the result row.
pub struct MatchGpt {
    llm: Arc<PretrainedLlm>,
    resilient: Option<ResilientLlm>,
    fallback: Option<Box<dyn Matcher>>,
    degraded: bool,
    strategy: DemoStrategy,
    demos: Vec<Demonstration>,
}

impl MatchGpt {
    /// Wraps an already pretrained tier (preferred: lets several
    /// demonstration variants share one model).
    pub fn with_llm(llm: Arc<PretrainedLlm>, strategy: DemoStrategy) -> Self {
        MatchGpt {
            llm,
            resilient: None,
            fallback: None,
            degraded: false,
            strategy,
            demos: Vec::new(),
        }
    }

    /// Wraps the tier in the resilient hosted client: calls go through
    /// retry/backoff and a per-backend circuit breaker, with `plan`
    /// optionally injecting deterministic faults (the `EM_FAULTS`
    /// environment contract — see [`FaultPlan::from_env`]). When the
    /// client gives up (breaker open, retries exhausted, deadline blown),
    /// `fallback` answers instead and the prediction round is flagged
    /// degraded.
    pub fn with_resilience(
        llm: Arc<PretrainedLlm>,
        strategy: DemoStrategy,
        plan: Option<FaultPlan>,
        fallback: Box<dyn Matcher>,
    ) -> Self {
        MatchGpt {
            resilient: Some(ResilientLlm::for_tier(llm.clone(), plan)),
            llm,
            fallback: Some(fallback),
            degraded: false,
            strategy,
            demos: Vec::new(),
        }
    }

    /// The tier backing this matcher.
    pub fn tier(&self) -> LlmTier {
        self.llm.tier
    }

    /// Demonstrations selected by the last `fit` (empty for `None`).
    pub fn demonstrations(&self) -> &[Demonstration] {
        &self.demos
    }

    /// The resilient client, if this matcher was built with one (exposed
    /// for chaos drills: force the breaker open to rehearse degradation).
    pub fn resilient(&self) -> Option<&ResilientLlm> {
        self.resilient.as_ref()
    }
}

/// Picks prototypical demonstrations: the positive with the highest and the
/// negatives with the lowest whole-string similarity — the "obvious"
/// examples a human would select.
fn hand_pick(pool: &[(em_core::SerializedPair, bool)]) -> Vec<Demonstration> {
    let score = |p: &em_core::SerializedPair| {
        em_text::ratcliff_obershelp(&p.left.to_lowercase(), &p.right.to_lowercase())
    };
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN similarity (e.g.
    // from a degenerate empty-string pair) must not abort the whole LODO
    // sweep over an unwrap on `None`.
    let best_pos = pool
        .iter()
        .filter(|(_, y)| *y)
        .max_by(|a, b| score(&a.0).total_cmp(&score(&b.0)));
    let mut negs: Vec<&(em_core::SerializedPair, bool)> =
        pool.iter().filter(|(_, y)| !*y).collect();
    negs.sort_by(|a, b| score(&a.0).total_cmp(&score(&b.0)));
    let mut out = Vec::with_capacity(3);
    for n in negs.into_iter().take(2) {
        out.push(Demonstration {
            pair: n.0.clone(),
            label: false,
        });
    }
    if let Some(p) = best_pos {
        out.push(Demonstration {
            pair: p.0.clone(),
            label: true,
        });
    }
    out
}

impl Matcher for MatchGpt {
    fn name(&self) -> String {
        match self.strategy {
            DemoStrategy::None => format!("MatchGPT [{}]", self.llm.tier.label()),
            s => format!("MatchGPT [{}] ({})", self.llm.tier.label(), s.label()),
        }
    }

    fn params_millions(&self) -> Option<f64> {
        Some(self.llm.tier.claimed_params_millions())
    }

    /// "Fitting" a prompted LLM only selects demonstrations from the
    /// transfer pool (never from the target dataset); the model itself is
    /// frozen.
    fn fit(&mut self, split: &LodoSplit<'_>, seed: u64) -> Result<()> {
        self.degraded = false;
        if let Some(fallback) = &mut self.fallback {
            fallback.fit(split, seed)?;
        }
        self.demos = match self.strategy {
            DemoStrategy::None => Vec::new(),
            DemoStrategy::HandPicked => {
                // A human picks once from a modest candidate sheet; the
                // per-seed serialization still varies the surface form.
                let pool = sample_transfer_pairs(split, 30, seed);
                hand_pick(&pool)
            }
            DemoStrategy::Random => {
                let pool = sample_transfer_pairs(split, 30, seed);
                random_demonstrations(&pool, 1, 2, seed)
            }
        };
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
        // The flag describes this call only: a recovered backend must not
        // keep reporting an earlier call's fallback.
        self.degraded = false;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let scores = match &self.resilient {
            Some(client) => match client.score_batch(&batch.serialized, &self.demos) {
                Ok(scores) => scores,
                Err(e) => {
                    // The hosted backend is unreachable even after
                    // retries: degrade to the registered fallback matcher
                    // (with its own score surface) rather than failing
                    // the evaluation item, and flag the call degraded.
                    let fallback = self
                        .fallback
                        .as_mut()
                        .expect("with_resilience always registers a fallback");
                    em_obs::metrics::counter("faults.degraded").add(1);
                    em_obs::event!(
                        warn,
                        "hosted.degraded",
                        backend = client.backend().as_str(),
                        fallback = fallback.name().as_str(),
                        cause = e.kind_label()
                    );
                    self.degraded = true;
                    return fallback.predict_scores(batch);
                }
            },
            None => self.llm.try_score_batch(&batch.serialized, &self.demos)?,
        };
        if scores.len() != batch.len() {
            return Err(EmError::Numeric("score batch size mismatch".into()));
        }
        Ok(scores)
    }

    fn was_degraded(&self) -> bool {
        self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::SerializedPair;
    use em_lm::{pretrain_tier, PretrainCorpus};

    fn sp(l: &str, r: &str) -> SerializedPair {
        SerializedPair {
            left: l.into(),
            right: r.into(),
        }
    }

    fn tiny_llm() -> Arc<PretrainedLlm> {
        let corpus = PretrainCorpus {
            pairs: (0..120)
                .map(|i| {
                    if i % 2 == 0 {
                        (sp(&format!("item {i}"), &format!("item {i}")), true)
                    } else {
                        (sp(&format!("item {i}"), &format!("thing {}", i + 1)), false)
                    }
                })
                .collect(),
        };
        Arc::new(pretrain_tier(LlmTier::Gpt35Turbo, &corpus, 0))
    }

    #[test]
    fn names_follow_table_conventions() {
        let llm = tiny_llm();
        assert_eq!(
            MatchGpt::with_llm(llm.clone(), DemoStrategy::None).name(),
            "MatchGPT [GPT-3.5-Turbo]"
        );
        assert_eq!(
            MatchGpt::with_llm(llm, DemoStrategy::Random).name(),
            "MatchGPT [GPT-3.5-Turbo] (random-selected)"
        );
    }

    #[test]
    fn hand_pick_selects_prototypes() {
        let pool = vec![
            (sp("alpha beta", "alpha beta"), true), // clear match
            (sp("alpha beta", "alpha betx"), true), // near match
            (sp("aaa bbb", "zzz qqq"), false),      // clear non-match
            (sp("ccc ddd", "yyy xxx"), false),      // clear non-match
            (sp("mixed one", "mixed two"), false),  // borderline
        ];
        let demos = hand_pick(&pool);
        assert_eq!(demos.len(), 3);
        assert_eq!(demos.iter().filter(|d| d.label).count(), 1);
        let pos = demos.iter().find(|d| d.label).unwrap();
        assert_eq!(&*pos.pair.left, "alpha beta");
        assert_eq!(&*pos.pair.right, "alpha beta");
        // The borderline negative is not picked.
        assert!(demos.iter().all(|d| &*d.pair.left != "mixed one"));
    }

    #[test]
    fn hand_pick_handles_single_class_pools() {
        let pool = vec![(sp("a", "a"), true)];
        let demos = hand_pick(&pool);
        assert_eq!(demos.len(), 1);
        assert!(demos[0].label);
    }

    #[test]
    fn shared_llm_across_variants() {
        let llm = tiny_llm();
        let a = MatchGpt::with_llm(llm.clone(), DemoStrategy::None);
        let b = MatchGpt::with_llm(llm.clone(), DemoStrategy::Random);
        assert_eq!(a.tier(), b.tier());
        assert_eq!(Arc::strong_count(&llm), 3);
    }

    #[test]
    fn predict_scores_pairs() {
        let llm = tiny_llm();
        let mut m = MatchGpt::with_llm(llm, DemoStrategy::None);
        let batch = EvalBatch {
            serialized: vec![sp("item 3", "item 3"), sp("item 3", "thing 9")],
            raw: vec![],
            attr_types: vec![],
        };
        let preds = m.predict(&batch).unwrap();
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn claimed_sizes_follow_the_paper() {
        let llm = tiny_llm();
        let m = MatchGpt::with_llm(llm, DemoStrategy::None);
        assert_eq!(m.params_millions(), Some(175_000.0));
    }

    fn small_batch() -> EvalBatch {
        EvalBatch {
            serialized: (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        sp(&format!("item {i}"), &format!("item {i}"))
                    } else {
                        sp(&format!("item {i}"), &format!("thing {}", i + 1))
                    }
                })
                .collect(),
            raw: vec![],
            attr_types: vec![],
        }
    }

    #[test]
    fn resilient_fault_free_path_matches_direct_path() {
        let llm = tiny_llm();
        let mut direct = MatchGpt::with_llm(llm.clone(), DemoStrategy::None);
        let mut resilient = MatchGpt::with_resilience(
            llm,
            DemoStrategy::None,
            None,
            Box::new(crate::string_sim::StringSim::new()),
        );
        let batch = small_batch();
        assert_eq!(
            resilient.predict(&batch).unwrap(),
            direct.predict(&batch).unwrap()
        );
        assert!(!resilient.was_degraded());
    }

    #[test]
    fn injected_faults_do_not_change_predictions() {
        let llm = tiny_llm();
        let plan = em_faults::FaultPlan::parse("7,0.1,all").unwrap();
        let mut clean = MatchGpt::with_llm(llm.clone(), DemoStrategy::None);
        let mut faulty = MatchGpt::with_resilience(
            llm,
            DemoStrategy::None,
            Some(plan),
            Box::new(crate::string_sim::StringSim::new()),
        );
        let batch = small_batch();
        assert_eq!(
            faulty.predict(&batch).unwrap(),
            clean.predict(&batch).unwrap(),
            "retried faults must be invisible in the predictions"
        );
        assert!(!faulty.was_degraded());
    }

    #[test]
    fn forced_open_breaker_degrades_to_fallback() {
        let llm = tiny_llm();
        let mut m = MatchGpt::with_resilience(
            llm,
            DemoStrategy::None,
            None,
            Box::new(crate::string_sim::StringSim::new()),
        );
        let client = m.resilient().unwrap();
        client.breaker().force_open(client.clock().now_ns());
        let batch = small_batch();
        let preds = m.predict(&batch).unwrap();
        assert!(m.was_degraded(), "open breaker must flag degradation");

        let mut fallback = crate::string_sim::StringSim::new();
        assert_eq!(
            preds,
            fallback.predict(&batch).unwrap(),
            "degraded predictions must come from the fallback matcher"
        );
    }

    #[test]
    fn fit_resets_the_degraded_flag() {
        let suite: Vec<em_core::Benchmark> = em_core::DatasetId::ALL
            .iter()
            .map(|&id| em_core::Benchmark {
                id,
                attr_types: vec![em_core::AttrType::ShortText],
                pairs: vec![em_core::LabeledPair::new(
                    em_core::Record::new(0, vec![em_core::AttrValue::from("x")]),
                    em_core::Record::new(1, vec![em_core::AttrValue::from("x")]),
                    true,
                )],
            })
            .collect();
        let split = em_core::lodo_split(&suite, em_core::DatasetId::Abt).unwrap();

        let llm = tiny_llm();
        let mut m = MatchGpt::with_resilience(
            llm,
            DemoStrategy::None,
            None,
            Box::new(crate::string_sim::StringSim::new()),
        );
        let client = m.resilient().unwrap();
        client.breaker().force_open(client.clock().now_ns());
        m.predict(&small_batch()).unwrap();
        assert!(m.was_degraded());
        m.fit(&split, 0).unwrap();
        assert!(!m.was_degraded(), "fit must clear the sticky degraded flag");
    }

    #[test]
    fn degraded_flag_describes_only_the_latest_call() {
        let llm = tiny_llm();
        let mut m = MatchGpt::with_resilience(
            llm,
            DemoStrategy::None,
            None,
            Box::new(crate::string_sim::StringSim::new()),
        );
        let client = m.resilient().unwrap();
        client.breaker().force_open(client.clock().now_ns());
        m.predict_scores(&small_batch()).unwrap();
        assert!(m.was_degraded());
        // Past the breaker's cooldown the half-open probe succeeds.
        let client = m.resilient().unwrap();
        client.clock().advance_ms(60_000);
        m.predict(&small_batch()).unwrap();
        assert!(
            !m.was_degraded(),
            "a recovered call must not report degradation"
        );
    }

    #[test]
    fn raw_scores_are_consistent_with_predictions() {
        let llm = tiny_llm();
        let mut m = MatchGpt::with_llm(llm, DemoStrategy::None);
        let batch = small_batch();
        let preds = m.predict(&batch).unwrap();
        let scores = m.predict_scores(&batch).unwrap();
        assert_eq!(preds.len(), scores.len());
        for (p, s) in preds.iter().zip(&scores) {
            assert_eq!(*p, *s >= 0.5, "pred {p} vs raw score {s}");
        }
    }

    #[test]
    fn degraded_scores_come_from_the_fallback_surface() {
        let llm = tiny_llm();
        let mut m = MatchGpt::with_resilience(
            llm,
            DemoStrategy::None,
            None,
            Box::new(crate::string_sim::StringSim::new()),
        );
        let client = m.resilient().unwrap();
        client.breaker().force_open(client.clock().now_ns());
        let batch = small_batch();
        let scores = m.predict_scores(&batch).unwrap();
        assert!(m.was_degraded());
        let mut fallback = crate::string_sim::StringSim::new();
        assert_eq!(
            scores,
            fallback.predict_scores(&batch).unwrap(),
            "degraded scores must be the fallback's scores, bitwise"
        );
    }

    #[test]
    fn hand_pick_survives_nan_similarity_scores() {
        // Empty strings drive ratcliff_obershelp into 0/0 territory on
        // some implementations; whatever the score, sorting must not
        // panic (the old `partial_cmp(..).unwrap()` did on NaN).
        let pool = vec![
            (sp("", ""), true),
            (sp("alpha", "alpha"), true),
            (sp("", "zzz"), false),
            (sp("aaa", "zzz"), false),
        ];
        let demos = hand_pick(&pool);
        assert_eq!(demos.iter().filter(|d| d.label).count(), 1);
        assert_eq!(demos.iter().filter(|d| !d.label).count(), 2);
    }
}
