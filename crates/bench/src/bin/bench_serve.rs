//! Serving-pipeline benchmark: two raw catalogs through blocking and the
//! confidence-gated matcher cascade of `em-serve`.
//!
//! The workload is `em_datagen::serve_relations` — two relations with a
//! known match mapping, noisy right-side presentations, and near-universal
//! filler tokens that exercise the blockers' stop cuts. The cascade is the
//! production shape from DESIGN.md §10:
//!
//! 1. **StringSim** (free) answers the obvious extremes;
//! 2. a **fine-tuned SLM** (priced at the paper's self-hosting formula)
//!    answers the escalated middle band;
//! 3. a **hosted LLM tier** (GPT-4 price) answers only the pairs the SLM
//!    itself is unsure about, through the resilient client.
//!
//! Both the SLM and the LLM tier are trained on a *differently seeded*
//! relations instance, so the serving relations stay unseen.
//!
//! The cascade's SLM tier runs the serve inference fast path: int8 GEMMs
//! plus length-bucketed batching, its buckets scored in parallel. Stages
//! run one after another, so each stage's wall-clock is its own compute.
//! Asserted before anything is reported:
//!
//! * the warm (second) run answers 100% from the score cache with
//!   bitwise-identical scores and zero billed tokens;
//! * the cascade costs **less** than running the fine-tuned SLM over every
//!   candidate, at **equal-or-better** end-to-end F1 (blocker misses count
//!   as false negatives for both);
//! * under `--smoke`, int8 serving flips < 0.5% of match decisions vs the
//!   same SLM served in f32.
//!
//! Writes machine-readable results to `BENCH_serve.json` (or the path in
//! argv[1]); `--smoke` runs 2k×2k to validate the harness in CI.

use em_blocking::{Blocker, CandidatePair, TokenBlocker};
use em_core::{SerializedPair, Serializer};
use em_cost::estimate::self_host_cost_per_1k;
use em_cost::pricing::openai;
use em_datagen::{labeled_pairs, serve_relations, ServeRelations};
use em_lm::config::{LlmTier, ModelConfig};
use em_lm::model::EncoderClassifier;
use em_lm::tokenizer::{encode_pair, Encoded, HashTokenizer};
use em_lm::zoo::{pretrain_tier, PretrainCorpus};
use em_lm::{predict_proba, train, InferencePrecision, TrainConfig};
use em_matchers::{DemoStrategy, MatchGpt, StringSim};
use em_nn::threadpool;
use em_serve::{FrozenSlm, RecordStore, ServePipeline, ServeReport, Stage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// The serving blocker (also used to mine hard training negatives).
fn serve_blocker() -> TokenBlocker {
    TokenBlocker {
        min_shared: 2,
        max_token_frequency: 0.05,
    }
}

/// Labeled pairs matched to the distribution the cascade actually scores:
/// positives are the true matches, negatives are *hard* — non-matching
/// candidates that survive blocking (so they share identity tokens) —
/// topped up with random pairs from `labeled_pairs`. Training on random
/// negatives alone leaves every stage over-confident exactly where the
/// blocker concentrates the difficulty.
fn hard_labeled_pairs(
    rels: &ServeRelations,
    n_pos: usize,
    n_neg: usize,
    seed: u64,
) -> Vec<(SerializedPair, bool)> {
    let ser = Serializer::identity(rels.arity());
    let truth: HashSet<CandidatePair> = rels.matches.iter().copied().collect();
    let mut hard: Vec<CandidatePair> = serve_blocker()
        .candidates(&rels.left, &rels.right)
        .into_iter()
        .filter(|c| !truth.contains(c))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6861_7264);
    hard.shuffle(&mut rng);
    hard.truncate(n_neg);
    let mut out = labeled_pairs(rels, n_pos, n_neg - hard.len(), seed);
    out.extend(hard.into_iter().map(|(i, j)| {
        (
            SerializedPair {
                left: ser.record(&rels.left[i]).into(),
                right: ser.record(&rels.right[j]).into(),
            },
            false,
        )
    }));
    out.shuffle(&mut rng);
    out
}

/// The `threads` JSON block shared by all bench bins.
fn threads_json() -> String {
    let s = threadpool::budget_snapshot();
    format!(
        "{{ \"em_num_threads\": {}, \"available_parallelism\": {}, \"effective_budget\": {}, \"reservation_probe_extra\": {} }}",
        s.env_threads.map_or_else(|| "null".to_string(), |v| v.to_string()),
        s.available_parallelism,
        s.effective,
        s.probe_grant
    )
}

/// Precision/recall/F1 of predicted matches against the full ground truth
/// (pairs the blocker dropped count as false negatives).
fn prf(matches: &[CandidatePair], truth: &HashSet<CandidatePair>) -> (f64, f64, f64) {
    let tp = matches.iter().filter(|m| truth.contains(m)).count();
    let p = tp as f64 / matches.len().max(1) as f64;
    let r = tp as f64 / truth.len().max(1) as f64;
    let f1 = if p + r > 0.0 {
        2.0 * p * r / (p + r)
    } else {
        0.0
    };
    (p, r, f1)
}

/// Fine-tunes the cascade's SLM on a separately-seeded relations instance
/// and sanity-checks it on held-out pairs before it is allowed to serve.
fn train_slm(seed: u64) -> (EncoderClassifier, HashTokenizer) {
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
    let rels = serve_relations(5_000, 5_000, 0.6, 1_007);
    let train_pairs = hard_labeled_pairs(&rels, 1_500, 1_500, 11);
    let holdout = hard_labeled_pairs(&rels, 400, 400, 97);
    let encode = |pairs: &[(SerializedPair, bool)]| -> Vec<(Encoded, bool)> {
        pairs
            .iter()
            .map(|(p, y)| (encode_pair(&tokenizer, p, cfg.max_seq), *y))
            .collect()
    };
    let mut model = EncoderClassifier::new(cfg, seed);
    let t0 = Instant::now();
    let report = train(
        &mut model,
        &encode(&train_pairs),
        &TrainConfig {
            epochs: 3,
            seed,
            ..Default::default()
        },
    );
    let held: Vec<(Encoded, bool)> = encode(&holdout);
    let encoded: Vec<Encoded> = held.iter().map(|(e, _)| e.clone()).collect();
    let scores = predict_proba(&model, &encoded, 64);
    let correct = scores
        .iter()
        .zip(&held)
        .filter(|(s, (_, y))| (**s >= 0.5) == *y)
        .count();
    let acc = correct as f64 / held.len() as f64;
    println!(
        "SLM fine-tune: {} examples, {} steps, final loss {:.4}, holdout accuracy {:.3} ({:.1}s)",
        train_pairs.len(),
        report.steps,
        report.epoch_losses.last().copied().unwrap_or(f32::NAN),
        acc,
        t0.elapsed().as_secs_f64()
    );
    assert!(
        acc > 0.8,
        "fine-tuned SLM failed its holdout gate: accuracy {acc:.3}"
    );
    (model, tokenizer)
}

fn stage_json(r: &em_serve::StageReport) -> String {
    format!(
        "{{ \"name\": \"{}\", \"pairs_in\": {}, \"scored\": {}, \"cache_hits\": {}, \"escalated\": {}, \"escalation_fraction\": {:.4}, \"cache_hit_rate\": {:.4}, \"pairs_per_sec\": {:.0}, \"tokens\": {}, \"usd\": {:.6} }}",
        r.name,
        r.pairs_in,
        r.scored,
        r.cache_hits,
        r.escalated,
        r.escalation_fraction(),
        r.cache_hit_rate(),
        r.pairs_per_sec(),
        r.tokens,
        r.bill.usd_total()
    )
}

fn print_stages(label: &str, report: &ServeReport) {
    println!("{label}:");
    for s in &report.stages {
        println!(
            "  {:<10} in {:>8}  scored {:>8}  cached {:>8}  escalated {:>7} ({:>5.1}%)  {:>9.0} pairs/s  ${:.4}{}",
            s.name,
            s.pairs_in,
            s.scored,
            s.cache_hits,
            s.escalated,
            s.escalation_fraction() * 100.0,
            s.pairs_per_sec(),
            s.bill.usd_total(),
            if s.degraded { "  [degraded]" } else { "" },
        );
    }
}

fn run(n: usize, out_path: &str, smoke: bool) {
    // --- Workload: the serving relations stay unseen by every stage. ----
    let t_gen = Instant::now();
    let rels = serve_relations(n, n, 0.3, 7);
    let left = RecordStore::new(rels.left.clone());
    let right = RecordStore::new(rels.right.clone());
    let truth: HashSet<CandidatePair> = rels.matches.iter().copied().collect();
    println!(
        "serve workload: {n}x{n} records, {} true matches ({:.1}s to generate)",
        truth.len(),
        t_gen.elapsed().as_secs_f64()
    );

    // --- Stage models, trained on a different seed. ---------------------
    let (slm, tokenizer) = train_slm(17);
    let train_rels = serve_relations(5_000, 5_000, 0.6, 1_007);
    let corpus = PretrainCorpus {
        pairs: hard_labeled_pairs(&train_rels, 2_500, 2_500, 23),
    };
    let t_tier = Instant::now();
    let gpt = Arc::new(pretrain_tier(LlmTier::Gpt4, &corpus, 5));
    println!(
        "hosted tier: {} pretrained in {:.1}s",
        LlmTier::Gpt4.label(),
        t_tier.elapsed().as_secs_f64()
    );

    // The paper's self-hosting price for the SLM; GPT-4 list price for the
    // hosted tier. StringSim is free.
    let slm_price = self_host_cost_per_1k(2_000.0);
    let frozen_slm = |precision: InferencePrecision| {
        FrozenSlm::new("slm-64d", slm.clone(), tokenizer.clone()).with_precision(precision)
    };
    let cascade_stages = || -> Vec<Stage> {
        vec![
            Stage::new("strsim", Box::new(StringSim::new())).with_margin(0.6),
            Stage::new("slm", Box::new(frozen_slm(InferencePrecision::Int8)))
                .with_margin(0.25)
                .priced(slm_price),
            Stage::new(
                "gpt4",
                Box::new(MatchGpt::with_resilience(
                    gpt.clone(),
                    DemoStrategy::None,
                    None,
                    Box::new(StringSim::new()),
                )),
            )
            .priced(openai::GPT4_PER_1K),
        ]
    };

    // --- Cascade: cold, then warm from the score cache. -----------------
    let mut pipe = ServePipeline::new(Box::new(serve_blocker()), cascade_stages()).unwrap();
    let t0 = Instant::now();
    let cold = pipe.run(&left, &right).unwrap();
    let cold_seconds = t0.elapsed().as_secs_f64();
    let slm_pairs_per_sec = cold.stages.get(1).map_or(0.0, |s| s.pairs_per_sec());
    println!(
        "slm stage: {} pairs at {slm_pairs_per_sec:.0} pairs/s",
        cold.stages.get(1).map_or(0, |s| s.pairs_in)
    );
    let t1 = Instant::now();
    let warm = pipe.run(&left, &right).unwrap();
    let warm_seconds = t1.elapsed().as_secs_f64();

    // Warm-run invariants: the cache answers everything, bitwise, and the
    // blocking state (indexes, candidates, serialized views) is reused —
    // the warm run must not re-tokenize, re-index, or re-probe.
    for (a, b) in cold.scores.iter().zip(&warm.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "cache must round-trip bitwise");
    }
    for s in &warm.stages {
        assert_eq!(s.scored, 0, "warm {}: matcher was invoked", s.name);
        assert_eq!(s.cache_hits, s.pairs_in, "warm {}: cache misses", s.name);
        assert_eq!(s.tokens, 0, "warm {}: cache hits billed tokens", s.name);
    }
    assert_eq!(cold.matches, warm.matches);
    assert!(
        !cold.blocking_reused,
        "first run has no blocking state to reuse"
    );
    assert!(
        warm.blocking_reused,
        "unchanged stores must reuse the cached candidate set"
    );
    assert!(
        warm_seconds < (cold_seconds / 5.0).max(0.5),
        "warm run ({warm_seconds:.2}s) must be at least 5x faster than cold ({cold_seconds:.2}s)"
    );

    // Blocking recall against the full truth (upper-bounds cascade recall).
    let cand_set: HashSet<CandidatePair> = cold.pairs.iter().copied().collect();
    let blocking_recall =
        truth.iter().filter(|m| cand_set.contains(m)).count() as f64 / truth.len() as f64;
    assert!(
        blocking_recall > 0.85,
        "blocking recall degenerated: {blocking_recall:.3}"
    );

    // --- Baseline: the fine-tuned SLM over every candidate, served in
    // f32 (the pre-fast-path reference the cost/quality claims compare
    // against). ----------------------------------------------------------
    let mut base_pipe = ServePipeline::new(
        Box::new(serve_blocker()),
        vec![Stage::new("slm-all", Box::new(frozen_slm(InferencePrecision::Full))).priced(slm_price)],
    )
    .unwrap();
    let t2 = Instant::now();
    let baseline = base_pipe.run(&left, &right).unwrap();
    let baseline_seconds = t2.elapsed().as_secs_f64();

    // --- Smoke gate: int8 serving must flip < 0.5% of the f32 decisions.
    // Scored on the identical candidate list (same blocker, same stores),
    // so the symmetric difference of match decisions *is* the flip set.
    let mut int8_flip_rate = f64::NAN;
    if smoke {
        let mut int8_pipe = ServePipeline::new(
            Box::new(serve_blocker()),
            vec![Stage::new("slm-all", Box::new(frozen_slm(InferencePrecision::Int8)))
                .priced(slm_price)],
        )
        .unwrap();
        let int8 = int8_pipe.run(&left, &right).unwrap();
        assert_eq!(int8.pairs, baseline.pairs, "flip-rate runs diverged on candidates");
        let flips = baseline
            .scores
            .iter()
            .zip(&int8.scores)
            .filter(|(f32_s, int8_s)| (**f32_s >= 0.5) != (**int8_s >= 0.5))
            .count();
        int8_flip_rate = flips as f64 / baseline.scores.len().max(1) as f64;
        println!(
            "int8 serve flip rate vs f32: {flips}/{} decisions ({:.4}%)",
            baseline.scores.len(),
            int8_flip_rate * 100.0
        );
        assert!(
            int8_flip_rate < 0.005,
            "int8 serving flipped {:.4}% of decisions (gate: < 0.5%)",
            int8_flip_rate * 100.0
        );
    }

    let (p, r, f1) = prf(&cold.matches, &truth);
    let (bp, br, bf1) = prf(&baseline.matches, &truth);
    let cascade_usd = cold.total_usd();
    let baseline_usd = baseline.total_usd();

    println!(
        "blocking: {} candidates, reduction ratio {:.4}, recall {:.3}, {:.2}s",
        cold.candidates, cold.reduction_ratio, blocking_recall, cold.blocking_seconds
    );
    print_stages("cascade (cold)", &cold);
    print_stages("cascade (warm, all cache)", &warm);
    print_stages("baseline (SLM on all candidates)", &baseline);
    println!(
        "cascade : P {p:.3} R {r:.3} F1 {f1:.3}  ${cascade_usd:.4}  ({cold_seconds:.1}s cold, {warm_seconds:.1}s warm)"
    );
    println!(
        "baseline: P {bp:.3} R {br:.3} F1 {bf1:.3}  ${baseline_usd:.4}  ({baseline_seconds:.1}s)"
    );

    // --- The headline claims, asserted. ---------------------------------
    assert!(
        cascade_usd < baseline_usd,
        "cascade (${cascade_usd:.4}) must undercut SLM-on-all (${baseline_usd:.4})"
    );
    assert!(
        f1 >= bf1,
        "cascade F1 {f1:.4} fell below the SLM-on-all baseline {bf1:.4}"
    );

    println!("{}", em_obs::report::render_metrics());

    let stages_cold: Vec<String> = cold.stages.iter().map(stage_json).collect();
    let stages_base: Vec<String> = baseline.stages.iter().map(stage_json).collect();
    // Process-cumulative fast-path counters (every run in this bench adds
    // to them); nonzero proves the bucketed collation actually engaged.
    let pad_saved = em_obs::metrics::counter("serve.bucket_pad_saved").get();
    let flip_json = if int8_flip_rate.is_nan() {
        "null".to_string()
    } else {
        format!("{int8_flip_rate:.6}")
    };
    let json = format!(
        "{{\n  \"workload\": \"serving pipeline (blocking -> confidence-gated cascade) on serve_relations\",\n  \"shape\": {{ \"n_left\": {n}, \"n_right\": {n}, \"match_fraction\": 0.3, \"truth_pairs\": {}, \"seed\": 7 }},\n  \"threads\": {},\n  \"blocking\": {{ \"candidates\": {}, \"reduction_ratio\": {:.6}, \"recall\": {:.4}, \"seconds\": {:.3} }},\n  \"fast_path\": {{ \"slm_precision\": \"int8\", \"slm_pairs_per_sec\": {:.0}, \"bucket_pad_saved_tokens\": {pad_saved}, \"int8_flip_rate_vs_f32\": {flip_json} }},\n  \"cascade_cold\": {{ \"seconds\": {:.3}, \"usd\": {:.6}, \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4}, \"stages\": [\n    {}\n  ] }},\n  \"cascade_warm\": {{ \"seconds\": {:.3}, \"cache_hit_rate\": 1.0, \"scores_bitwise_equal_cold\": true, \"blocking_reused\": true, \"speedup_vs_cold\": {:.1}, \"usd\": {:.6} }},\n  \"baseline_slm_on_all\": {{ \"seconds\": {:.3}, \"usd\": {:.6}, \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4}, \"stages\": [\n    {}\n  ] }},\n  \"prices_usd_per_1k\": {{ \"strsim\": 0.0, \"slm_self_host\": {:.6}, \"gpt4\": {:.6} }},\n  \"cascade_cost_saving_vs_baseline\": {:.4},\n  \"cascade_f1_minus_baseline_f1\": {:.4}\n}}\n",
        truth.len(),
        threads_json(),
        cold.candidates,
        cold.reduction_ratio,
        blocking_recall,
        cold.blocking_seconds,
        slm_pairs_per_sec,
        cold_seconds,
        cascade_usd,
        p,
        r,
        f1,
        stages_cold.join(",\n    "),
        warm_seconds,
        cold_seconds / warm_seconds.max(1e-9),
        warm.total_usd(),
        baseline_seconds,
        baseline_usd,
        bp,
        br,
        bf1,
        stages_base.join(",\n    "),
        slm_price,
        openai::GPT4_PER_1K,
        1.0 - cascade_usd / baseline_usd,
        f1 - bf1,
    );
    std::fs::write(out_path, json).expect("failed to write benchmark results");
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .skip(1)
        .find(|a| *a != "--smoke")
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    // Counters feed the serve.* profile greps (scripts/profile_serve.sh).
    em_obs::trace::set_capture(true);
    if smoke {
        run(2_000, &out_path, true);
    } else {
        run(100_000, &out_path, false);
    }
}
