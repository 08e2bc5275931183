//! `lodo_study`: the paper's leave-one-dataset-out protocol through
//! `em_core::evaluate_all`, over the 11 generated datasets × 1 seed.
//!
//! Two matchers: AnyMatch[GPT-2], fine-tuned per target from a backbone
//! pretrained in set-up, and MatchGPT on the GPT-4o-mini tier with
//! hand-picked demonstrations, which scores through the prefix cache.

use crate::report::{Checks, Digest, Tally};
use crate::{Quality, Scale, Workload};
use em_core::{
    build_batch, evaluate_all, test_sample, Benchmark, DatasetId, EvalBatch, EvalConfig, LodoSplit,
    Matcher, Result,
};
use em_cost::pricing::openai;
use em_lm::{pretrain_tier, LlmTier, PretrainCorpus, PretrainedLlm};
use em_matchers::{AnyMatch, AnyMatchBackbone, DemoStrategy, MatchGpt};
use em_nn::threadpool;
use em_serve::approx_tokens;
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Factory = Box<dyn Fn() -> Box<dyn Matcher> + Send + Sync>;

/// Pretrained AnyMatch instances, one per evaluation worker, built in
/// set-up. `fit` restarts from the pretrained backbone on every call, so
/// an instance is reusable across study passes.
type Pool = Arc<Mutex<Vec<AnyMatch>>>;

/// An AnyMatch instance borrowed from the pool; returned on drop.
struct Pooled {
    inner: Option<AnyMatch>,
    pool: Pool,
}

impl Pooled {
    fn get(&self) -> &AnyMatch {
        self.inner.as_ref().expect("present until drop")
    }

    fn get_mut(&mut self) -> &mut AnyMatch {
        self.inner.as_mut().expect("present until drop")
    }
}

impl Drop for Pooled {
    fn drop(&mut self) {
        if let (Some(m), Ok(mut pool)) = (self.inner.take(), self.pool.lock()) {
            pool.push(m);
        }
    }
}

impl Matcher for Pooled {
    fn name(&self) -> String {
        self.get().name()
    }

    fn params_millions(&self) -> Option<f64> {
        self.get().params_millions()
    }

    fn fit(&mut self, split: &LodoSplit<'_>, seed: u64) -> Result<()> {
        self.get_mut().fit(split, seed)
    }

    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        self.get_mut().predict(batch)
    }

    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        self.get_mut().predict_scores(batch)
    }

    fn saw_during_training(&self, dataset: DatasetId) -> bool {
        self.get().saw_during_training(dataset)
    }

    fn was_degraded(&self) -> bool {
        self.get().was_degraded()
    }

    fn exact_billed_tokens(&self) -> Option<Vec<u64>> {
        self.get().exact_billed_tokens()
    }
}

/// The study fixture.
pub struct LodoStudy {
    suite: Vec<Benchmark>,
    corpus: Arc<PretrainCorpus>,
    scale: Scale,
    pool: Pool,
    tier: Arc<PretrainedLlm>,
    cfg: EvalConfig,
    /// Test pairs one pass decides (both matchers).
    pairs_per_pass: f64,
    digest: Option<u64>,
    quality: Quality,
}

fn anymatch(scale: &Scale, corpus: &PretrainCorpus) -> AnyMatch {
    match scale.anymatch {
        Some(cfg) => AnyMatch::pretrained_with_config(AnyMatchBackbone::Gpt2, corpus, cfg),
        None => AnyMatch::pretrained(AnyMatchBackbone::Gpt2, corpus),
    }
}

impl Workload for LodoStudy {
    /// Three passes: the pass time varies with which worker ends up with
    /// the last fine-tuning items, so the run reports medians; passes
    /// after the first re-check its digest.
    const MIN_STEPS: usize = 3;

    fn setup(scale: &Scale, seed: u64, _checks: &mut Checks) -> Self {
        let suite = em_datagen::generate_suite(seed);
        let corpus = Arc::new(PretrainCorpus {
            pairs: em_datagen::pretrain_corpus(scale.lodo_corpus, seed),
        });
        // One pretrained instance per worker `evaluate_all` can run,
        // pretrained side by side.
        let pool: Vec<AnyMatch> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threadpool::max_threads())
                .map(|_| s.spawn(|| anymatch(scale, &corpus)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("AnyMatch pretraining panicked"))
                .collect()
        });
        let tier = Arc::new(pretrain_tier(LlmTier::Gpt4oMini, &corpus, seed));
        let cfg = EvalConfig {
            seeds: vec![seed],
            test_cap: scale.lodo_test_cap,
        };
        let pairs_per_pass = suite
            .iter()
            .map(|b| test_sample(b, cfg.test_cap).len())
            .sum::<usize>() as f64
            * cfg.seeds.len() as f64
            * 2.0;
        LodoStudy {
            suite,
            corpus,
            scale: *scale,
            pool: Arc::new(Mutex::new(pool)),
            tier,
            cfg,
            pairs_per_pass,
            digest: None,
            quality: Quality::default(),
        }
    }

    fn step(&mut self, tally: &mut Tally, checks: &mut Checks) {
        let (pool, corpus, scale) = (self.pool.clone(), self.corpus.clone(), self.scale);
        let tier = self.tier.clone();
        let factories: Vec<(String, Factory)> = vec![
            (
                "anymatch-gpt2".into(),
                Box::new(move || {
                    let popped = pool.lock().expect("pool lock poisoned").pop();
                    Box::new(Pooled {
                        inner: Some(popped.unwrap_or_else(|| anymatch(&scale, &corpus))),
                        pool: pool.clone(),
                    })
                }),
            ),
            (
                "matchgpt-4o-mini-handpicked".into(),
                Box::new(move || {
                    Box::new(MatchGpt::with_llm(tier.clone(), DemoStrategy::HandPicked))
                }),
            ),
        ];
        let items = (factories.len() * self.suite.len() * self.cfg.seeds.len()) as u64;
        let t0 = Instant::now();
        let result = evaluate_all(factories, &self.suite, &self.cfg);
        let latency = t0.elapsed().as_secs_f64();
        tally.attempted += items;
        let reports = match result {
            Ok(reports) => reports,
            Err(e) => {
                tally.failed += items;
                checks.require(false, || format!("study pass failed: {e}"));
                return;
            }
        };
        tally.sample(latency, self.pairs_per_pass, items as f64);
        let mut d = Digest::default();
        let mut macro_f1 = 0.0;
        for report in &reports {
            checks.require(report.scores.len() == self.suite.len(), || {
                format!(
                    "{}: {} of {} targets finished",
                    report.matcher,
                    report.scores.len(),
                    self.suite.len()
                )
            });
            for score in &report.scores {
                if score.degraded {
                    tally.failed += 1;
                }
                checks.require(score.per_seed_f1.len() == self.cfg.seeds.len(), || {
                    format!("{} on {:?}: missing seeds", report.matcher, score.dataset)
                });
                for f1 in &score.per_seed_f1 {
                    checks.require((0.0..=100.0).contains(f1), || {
                        format!(
                            "{} on {:?}: F1 {f1} outside [0, 100]",
                            report.matcher, score.dataset
                        )
                    });
                    d.push(f1.to_bits());
                }
            }
            macro_f1 += report.mean_column().mean / reports.len() as f64;
        }
        let d = d.value();
        match self.digest {
            Some(first) => checks.require(d == first, || {
                format!("study pass digest {d:#018x} differs from the first pass {first:#018x}")
            }),
            None => {
                self.digest = Some(d);
                self.quality = Quality {
                    f1: macro_f1,
                    usd_per_1k_pairs: self.hosted_usd_per_1k(),
                };
            }
        }
    }

    fn finish(&mut self, _checks: &mut Checks) -> Quality {
        self.quality
    }

    fn digest(&self) -> u64 {
        self.digest.unwrap_or(0)
    }

    fn workers(&self) -> usize {
        threadpool::max_threads().min(2 * self.suite.len())
    }
}

impl LodoStudy {
    /// What MatchGPT's query tokens (serialized bytes / 4, demonstrations
    /// not counted) would bill at the GPT-4o-mini list price, per 1,000
    /// test pairs it decides.
    fn hosted_usd_per_1k(&self) -> f64 {
        let (mut tokens, mut pairs) = (0u64, 0usize);
        for bench in &self.suite {
            for &seed in &self.cfg.seeds {
                let (batch, _) = build_batch(bench, self.cfg.test_cap, seed);
                tokens += batch.serialized.iter().map(approx_tokens).sum::<u64>();
                pairs += batch.len();
            }
        }
        tokens as f64 / 1000.0 * openai::GPT4O_MINI_PER_1K / pairs.max(1) as f64 * 1000.0
    }
}
