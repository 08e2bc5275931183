//! The two serving workloads: `serve_cold` (a cold 100k×100k pass,
//! repeated) and `serve_ingest` (appends to a growing right catalog, each
//! followed by a run of one long-lived pipeline).
//!
//! Both serve the same cascade: `TokenBlocker{min_shared: 2,
//! max_token_frequency: 0.05}` → StringSim (margin 0.6) → int8
//! `FrozenSlm` (64-d, margin 0.25, self-host price) → zero-shot
//! GPT-3.5-Turbo tier (list price). The models are trained in set-up on a
//! relations instance seeded apart from the served one.

use crate::report::{Checks, Digest, Tally};
use crate::{Quality, Scale, Workload};
use em_blocking::{Blocker, CandidatePair, TokenBlocker};
use em_core::{Record, SerializedPair, Serializer};
use em_cost::estimate::self_host_cost_per_1k;
use em_cost::pricing::openai;
use em_datagen::{
    labeled_pairs, serve_relations, DriftBatch, DriftConfig, DriftStream, ServeRelations,
};
use em_lm::{
    encode_pair, predict_proba, pretrain_tier, train, Encoded, EncoderClassifier, HashTokenizer,
    InferencePrecision, LlmTier, ModelConfig, PretrainCorpus, PretrainedLlm, TrainConfig,
};
use em_matchers::{DemoStrategy, MatchGpt, StringSim};
use em_serve::{FrozenSlm, RecordStore, ServePipeline, ServeReport, Stage};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Blocking recall (true matches among candidates) a cold pass must keep.
pub const RECALL_FLOOR: f64 = 0.85;

/// Held-out accuracy the fine-tuned SLM must clear before it may serve.
pub const SLM_ACCURACY_FLOOR: f64 = 0.75;

/// Salt separating the training relations from the served ones.
const TRAIN_SALT: u64 = 0x7472_6169_6e69_6e67;

/// Per-stage layer keys: seconds, scored, escalated, tokens.
const STAGE_KEYS: [(&str, [&str; 4]); 3] = [
    (
        "strsim",
        [
            "stage.strsim.s",
            "stage.strsim.scored",
            "stage.strsim.escalated",
            "stage.strsim.tokens",
        ],
    ),
    (
        "slm",
        [
            "stage.slm.s",
            "stage.slm.scored",
            "stage.slm.escalated",
            "stage.slm.tokens",
        ],
    ),
    (
        "hosted",
        [
            "stage.hosted.s",
            "stage.hosted.scored",
            "stage.hosted.escalated",
            "stage.hosted.tokens",
        ],
    ),
];

fn blocker() -> TokenBlocker {
    TokenBlocker {
        min_shared: 2,
        max_token_frequency: 0.05,
    }
}

/// The cascade's trained models.
pub struct Models {
    slm: EncoderClassifier,
    tokenizer: HashTokenizer,
    hosted: Arc<PretrainedLlm>,
}

/// `n` true matches and `n` hard negatives (blocked non-matches, topped
/// up with random pairs), serialized — the distribution the cascade sees.
fn hard_labeled_pairs(rels: &ServeRelations, n: usize, seed: u64) -> Vec<(SerializedPair, bool)> {
    let ser = Serializer::identity(rels.arity());
    let truth: HashSet<CandidatePair> = rels.matches.iter().copied().collect();
    let mut hard: Vec<CandidatePair> = blocker()
        .candidates(&rels.left, &rels.right)
        .into_iter()
        .filter(|c| !truth.contains(c))
        .collect();
    // A seeded stride pick keeps the sample spread over the candidate list.
    let stride = (hard.len() / n.max(1)).max(1);
    let start = (seed as usize) % stride;
    hard = hard
        .into_iter()
        .skip(start)
        .step_by(stride)
        .take(n)
        .collect();
    let mut out = labeled_pairs(rels, n, n - hard.len(), seed);
    out.extend(hard.into_iter().map(|(i, j)| {
        (
            SerializedPair {
                left: ser.record(&rels.left[i]).into(),
                right: ser.record(&rels.right[j]).into(),
            },
            false,
        )
    }));
    out
}

impl Models {
    /// Fine-tunes the SLM, pretrains the hosted tier, and gates the SLM
    /// on held-out accuracy.
    pub fn train(scale: &Scale, seed: u64, checks: &mut Checks) -> Models {
        let rels = serve_relations(
            scale.train_records,
            scale.train_records,
            0.6,
            seed ^ TRAIN_SALT,
        );
        let cfg = ModelConfig {
            vocab: 4096,
            d_model: 64,
            n_layers: 2,
            n_heads: 4,
            ff_mult: 2,
            max_seq: 48,
            dropout: 0.0,
            claimed_params_millions: 0.5,
        };
        let tokenizer = HashTokenizer::new(cfg.vocab);
        let encode = |pairs: Vec<(SerializedPair, bool)>| -> Vec<(Encoded, bool)> {
            pairs
                .into_iter()
                .map(|(p, y)| (encode_pair(&tokenizer, &p, cfg.max_seq), y))
                .collect()
        };
        let train_set = encode(hard_labeled_pairs(&rels, scale.slm_pairs, seed ^ 11));
        let holdout = encode(hard_labeled_pairs(&rels, scale.holdout_pairs, seed ^ 97));
        let mut slm = EncoderClassifier::new(cfg, seed ^ 17);
        train(
            &mut slm,
            &train_set,
            &TrainConfig {
                epochs: scale.slm_epochs,
                seed,
                ..Default::default()
            },
        );
        let inputs: Vec<Encoded> = holdout.iter().map(|(e, _)| e.clone()).collect();
        let correct = predict_proba(&slm, &inputs, 64)
            .iter()
            .zip(&holdout)
            .filter(|(s, (_, y))| (**s >= 0.5) == *y)
            .count();
        let accuracy = correct as f64 / holdout.len().max(1) as f64;
        checks.require(accuracy > SLM_ACCURACY_FLOOR, || {
            format!("fine-tuned SLM held-out accuracy {accuracy:.3} <= {SLM_ACCURACY_FLOOR}")
        });
        let corpus = PretrainCorpus {
            pairs: hard_labeled_pairs(&rels, scale.tier_pairs, seed ^ 23),
        };
        let hosted = Arc::new(pretrain_tier(LlmTier::Gpt35Turbo, &corpus, seed ^ 5));
        Models {
            slm,
            tokenizer,
            hosted,
        }
    }

    /// A fresh pipeline over the cascade, with the default configuration.
    fn pipeline(&self) -> ServePipeline {
        let stages = vec![
            Stage::new("strsim", Box::new(StringSim::new())).with_margin(0.6),
            Stage::new(
                "slm",
                Box::new(
                    FrozenSlm::new("slm-64d", self.slm.clone(), self.tokenizer.clone())
                        .with_precision(InferencePrecision::Int8),
                ),
            )
            .with_margin(0.25)
            .priced(self_host_cost_per_1k(2_000.0)),
            Stage::new(
                "hosted",
                Box::new(MatchGpt::with_llm(self.hosted.clone(), DemoStrategy::None)),
            )
            .priced(openai::GPT35_TURBO_PER_1K),
        ];
        ServePipeline::new(Box::new(blocker()), stages).expect("the cascade has three stages")
    }
}

/// Adds one serving run's report to the layer sums and failure counts.
fn absorb(tally: &mut Tally, r: &ServeReport, run_s: f64) {
    tally.add("run.s", run_s);
    tally.add("blocking.s", r.blocking_seconds);
    tally.add("blocking.candidates", r.candidates as f64);
    for s in &r.stages {
        tally.add("stages.s", s.seconds);
        tally.add("stages.pairs_in", s.pairs_in as f64);
        tally.add("stages.cache_hits", s.cache_hits as f64);
        if let Some((_, [secs, scored, escalated, tokens])) =
            STAGE_KEYS.iter().find(|(name, _)| *name == s.name)
        {
            tally.add(secs, s.seconds);
            tally.add(scored, s.scored as f64);
            tally.add(escalated, s.escalated as f64);
            tally.add(tokens, s.tokens as f64);
        }
        if s.errored || s.degraded {
            tally.failed += s.pairs_in as u64;
        }
    }
    tally.attempted += r.candidates as u64;
}

/// Digest of a report's decisions: every pair and its score bits.
fn digest(r: &ServeReport) -> u64 {
    let mut d = Digest::default();
    for (&(i, j), s) in r.pairs.iter().zip(&r.scores) {
        d.push(i as u64);
        d.push(j as u64);
        d.push(u64::from(s.to_bits()));
    }
    d.value()
}

/// Cascade F1 in percent against the full truth; pairs the blocker
/// missed count as false negatives.
fn f1_percent(matches: &[CandidatePair], truth: &HashSet<CandidatePair>) -> f64 {
    let tp = matches.iter().filter(|m| truth.contains(m)).count() as f64;
    let p = tp / matches.len().max(1) as f64;
    let r = tp / truth.len().max(1) as f64;
    if p + r > 0.0 {
        200.0 * p * r / (p + r)
    } else {
        0.0
    }
}

/// `serve_cold`: two fresh catalogs loaded into new stores and served by
/// a new pipeline, once per operation.
pub struct ServeCold {
    models: Models,
    left: Vec<Record>,
    right: Vec<Record>,
    truth: HashSet<CandidatePair>,
    digest: Option<u64>,
    quality: Quality,
}

impl Workload for ServeCold {
    /// Three passes: the run reports medians, and passes after the first
    /// re-check its digest.
    const MIN_STEPS: usize = 3;

    fn setup(scale: &Scale, seed: u64, checks: &mut Checks) -> Self {
        let rels = serve_relations(scale.serve_records, scale.serve_records, 0.3, seed);
        let models = Models::train(scale, seed, checks);
        ServeCold {
            models,
            truth: rels.matches.iter().copied().collect(),
            left: rels.left,
            right: rels.right,
            digest: None,
            quality: Quality::default(),
        }
    }

    fn step(&mut self, tally: &mut Tally, checks: &mut Checks) {
        let (l, r) = (self.left.clone(), self.right.clone());
        let t0 = Instant::now();
        let left = RecordStore::new(l);
        let right = RecordStore::new(r);
        let render_s = t0.elapsed().as_secs_f64();
        let mut pipe = self.models.pipeline();
        let t_run = Instant::now();
        let result = pipe.run(&left, &right);
        let run_s = t_run.elapsed().as_secs_f64();
        let latency = t0.elapsed().as_secs_f64();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                checks.require(false, || format!("cold pass failed: {e}"));
                return;
            }
        };
        tally.sample(latency, report.candidates as f64, 1.0);
        tally.add("store.render_s", render_s);
        absorb(tally, &report, run_s);
        let d = digest(&report);
        match self.digest {
            Some(first) => checks.require(d == first, || {
                format!("cold pass digest {d:#018x} differs from the first pass {first:#018x}")
            }),
            None => {
                self.digest = Some(d);
                let found = report
                    .pairs
                    .iter()
                    .filter(|p| self.truth.contains(p))
                    .count();
                let recall = found as f64 / self.truth.len().max(1) as f64;
                checks.require(recall > RECALL_FLOOR, || {
                    format!("blocking recall {recall:.4} <= {RECALL_FLOOR}")
                });
                self.quality = Quality {
                    f1: f1_percent(&report.matches, &self.truth),
                    usd_per_1k_pairs: report.total_usd() / report.candidates.max(1) as f64 * 1000.0,
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
}

/// `serve_ingest`: a fixed left catalog and a right catalog that grows by
/// appended batches; every append is followed by a run of one
/// long-lived pipeline.
///
/// One operation is an *episode*: the right store restarts from the
/// initial catalog (already served in set-up, so its pairs are cache hits)
/// and takes `ingest_episode` appends of fresh stream records. Episodes
/// are alike in shape, so the latency distribution does not depend on how
/// many of them a faster build completes.
pub struct ServeIngest {
    models: Models,
    left: RecordStore,
    initial: Vec<Record>,
    initial_truth: Vec<CandidatePair>,
    batches: Vec<DriftBatch>,
    per_episode: usize,
    pipe: ServePipeline,
    episode: usize,
    last: Option<(RecordStore, ServeReport)>,
    quality: Quality,
}

impl Workload for ServeIngest {
    const MIN_STEPS: usize = 1;

    fn setup(scale: &Scale, seed: u64, checks: &mut Checks) -> Self {
        let initial_batches = scale.ingest_initial / scale.ingest_batch;
        let stream = DriftStream::new(DriftConfig {
            left_size: scale.ingest_left,
            batches: initial_batches + scale.ingest_episode * scale.ingest_episodes_max,
            batch_size: scale.ingest_batch,
            match_fraction: 0.3,
            start_rate: 0.0,
            end_rate: 0.0,
            seed,
        });
        let left = RecordStore::new(stream.left().to_vec());
        let mut batches: Vec<DriftBatch> = stream.collect();
        let appended = batches.split_off(initial_batches);
        let mut initial = Vec::with_capacity(scale.ingest_initial);
        let mut initial_truth = Vec::new();
        for b in batches {
            let offset = initial.len();
            initial_truth.extend(b.matches.iter().map(|&(l, j)| (l, offset + j)));
            initial.extend(b.records);
        }
        let models = Models::train(scale, seed, checks);
        let mut pipe = models.pipeline();
        let served = pipe.run(&left, &RecordStore::new(initial.clone()));
        checks.require(served.is_ok(), || {
            format!("serving the initial catalog failed: {:?}", served.err())
        });
        ServeIngest {
            models,
            left,
            initial,
            initial_truth,
            batches: appended,
            per_episode: scale.ingest_episode,
            pipe,
            episode: 0,
            last: None,
            quality: Quality::default(),
        }
    }

    fn step(&mut self, tally: &mut Tally, checks: &mut Checks) {
        let e = self.episode;
        self.episode += 1;
        let mut right = RecordStore::new(self.initial.clone());
        let mut truth: HashSet<CandidatePair> = self.initial_truth.iter().copied().collect();
        let (mut usd, mut decided) = (0.0, 0usize);
        let mut last = None;
        for b in &self.batches[e * self.per_episode..(e + 1) * self.per_episode] {
            let offset = right.len();
            if e == 0 {
                truth.extend(b.matches.iter().map(|&(l, j)| (l, offset + j)));
            }
            let records = b.records.clone();
            let t0 = Instant::now();
            right.append(records);
            let append_s = t0.elapsed().as_secs_f64();
            let t_run = Instant::now();
            let result = self.pipe.run(&self.left, &right);
            let run_s = t_run.elapsed().as_secs_f64();
            let latency = t0.elapsed().as_secs_f64();
            match result {
                Ok(report) => {
                    tally.sample(latency, report.candidates as f64, 1.0);
                    tally.add("store.append_s", append_s);
                    absorb(tally, &report, run_s);
                    usd += report.total_usd();
                    decided += report.candidates;
                    last = Some(report);
                }
                Err(err) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    checks.require(false, || format!("ingest run failed: {err}"));
                    return;
                }
            }
        }
        if let Some(report) = last {
            if e == 0 {
                self.quality = Quality {
                    f1: f1_percent(&report.matches, &truth),
                    usd_per_1k_pairs: usd / decided.max(1) as f64 * 1000.0,
                };
            }
            self.last = Some((right, report));
        }
    }

    fn exhausted(&self) -> bool {
        (self.episode + 1) * self.per_episode > self.batches.len()
    }

    /// The last incremental report must equal a from-scratch cold run of
    /// a new pipeline on the final stores, bit for bit.
    fn finish(&mut self, checks: &mut Checks) -> Quality {
        if let Some((right, incremental)) = &self.last {
            match self.models.pipeline().run(&self.left, right) {
                Ok(cold) => {
                    let same = cold.pairs == incremental.pairs
                        && cold.matches == incremental.matches
                        && cold.scores.len() == incremental.scores.len()
                        && cold
                            .scores
                            .iter()
                            .zip(&incremental.scores)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    checks.require(same, || {
                        "the last incremental report differs from a cold run on the final stores"
                            .to_string()
                    });
                }
                Err(e) => checks.require(false, || format!("cold re-run failed: {e}")),
            }
        }
        self.quality
    }

    fn digest(&self) -> u64 {
        self.last.as_ref().map_or(0, |(_, r)| digest(r))
    }
}
