//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three closed-loop workloads over the public APIs of the workspace
//! (`RecordStore`, `ServePipeline::run`, `em_core::evaluate_all`, and the
//! training entry points in set-up), each generated from a seed:
//!
//! * `serve_cold` — cold 100k×100k serving passes;
//! * `serve_ingest` — appends to a growing right catalog, each followed by
//!   a run of one long-lived pipeline;
//! * `lodo_study` — the paper's leave-one-dataset-out study.
//!
//! An untraced run sets up [`SETUP_REPEATS`] times, runs the timed
//! phase with tracing off, checks the outputs, and reports
//! [`report::END_TO_END`]. A traced run sets up once under capture, runs
//! half the time untraced and half traced, and reports
//! [`report::PER_LAYER`]. See `README.md` for the metric table.

mod capture;
mod host;
mod lodo;
pub mod report;
mod serve;

use capture::{Capture, Captured};
use em_matchers::AnyMatchConfig;
use report::{median, peak_rss_mb, tail, Checks, Outcome, Tally, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The seed a claim is developed on.
pub const DEFAULT_SEED: u64 = 1;

/// The seed held out for the "claim holds on an unused seed" check.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records per side of a `serve_cold` pass.
    pub serve_records: usize,
    /// Records per side of the relations the serve models train on.
    pub train_records: usize,
    /// Positives (and as many negatives) the SLM fine-tunes on.
    pub slm_pairs: usize,
    /// Positives (and negatives) of the SLM's held-out gate.
    pub holdout_pairs: usize,
    /// SLM fine-tuning epochs.
    pub slm_epochs: usize,
    /// Positives (and negatives) of the hosted tier's pretraining corpus.
    pub tier_pairs: usize,
    /// Fixed left catalog of `serve_ingest`.
    pub ingest_left: usize,
    /// Initial right catalog of `serve_ingest`, served in set-up.
    pub ingest_initial: usize,
    /// Records per append.
    pub ingest_batch: usize,
    /// Appends per episode (one closed-loop operation).
    pub ingest_episode: usize,
    /// Episodes the pre-generated stream holds.
    pub ingest_episodes_max: usize,
    /// Pretraining corpus of the study's backbone and tier.
    pub lodo_corpus: usize,
    /// Test pairs per LODO target.
    pub lodo_test_cap: usize,
    /// AnyMatch pipeline; `None` is the paper's default configuration.
    pub anymatch: Option<AnyMatchConfig>,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Scale {
        Scale {
            serve_records: 100_000,
            train_records: 2_000,
            slm_pairs: 300,
            holdout_pairs: 200,
            slm_epochs: 2,
            tier_pairs: 300,
            ingest_left: 100_000,
            ingest_initial: 20_000,
            ingest_batch: 1_000,
            ingest_episode: 14,
            ingest_episodes_max: 8,
            lodo_corpus: 300,
            lodo_test_cap: em_core::TEST_CAP,
            anymatch: None,
        }
    }

    /// A scaled-down instance for tests: same code paths, seconds to run.
    pub fn tiny() -> Scale {
        Scale {
            serve_records: 1_500,
            train_records: 1_000,
            slm_pairs: 150,
            holdout_pairs: 100,
            slm_epochs: 2,
            tier_pairs: 100,
            ingest_left: 1_500,
            ingest_initial: 400,
            ingest_batch: 100,
            ingest_episode: 3,
            ingest_episodes_max: 2,
            lodo_corpus: 60,
            lodo_test_cap: 30,
            anymatch: Some(AnyMatchConfig {
                per_dataset: 8,
                difficult_keep: 20,
                attr_aug: 10,
                epochs: 1,
                ..AnyMatchConfig::default()
            }),
        }
    }
}

/// Deterministic quality figures of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// F1 in percent (macro over targets for the study).
    pub f1: f64,
    /// Billed USD per 1,000 pairs decided.
    pub usd_per_1k_pairs: f64,
}

/// One workload: set-up from a seed, closed-loop operations, and checks.
pub trait Workload: Sized {
    /// Operations that run even when the time is spent.
    const MIN_STEPS: usize;

    /// Generates the inputs from `seed` and trains the models.
    fn setup(scale: &Scale, seed: u64, checks: &mut Checks) -> Self;

    /// Runs one closed-loop operation, recording its latency samples.
    fn step(&mut self, tally: &mut Tally, checks: &mut Checks);

    /// `true` when the pre-generated inputs cannot feed another step.
    fn exhausted(&self) -> bool {
        false
    }

    /// Checks made outside the timed phase, and the quality figures.
    fn finish(&mut self, checks: &mut Checks) -> Quality;

    /// Digest of the latest operation's output.
    fn digest(&self) -> u64;

    /// Workers the operation runs in parallel (for `eval.busy_frac`).
    fn workers(&self) -> usize {
        1
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold 100k×100k serving passes.
    ServeCold,
    /// Incremental ingest into one long-lived pipeline.
    ServeIngest,
    /// The leave-one-dataset-out study.
    LodoStudy,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::ServeCold, Kind::ServeIngest, Kind::LodoStudy];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeCold => "serve_cold",
            Kind::ServeIngest => "serve_ingest",
            Kind::LodoStudy => "lodo_study",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Runs one workload and returns its result line.
pub fn run(kind: Kind, scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match kind {
        Kind::ServeCold => run_workload::<serve::ServeCold>(scale, seed, seconds, trace),
        Kind::ServeIngest => run_workload::<serve::ServeIngest>(scale, seed, seconds, trace),
        Kind::LodoStudy => run_workload::<lodo::LodoStudy>(scale, seed, seconds, trace),
    }
}

/// Work counters and output digest of `steps` operations after one
/// traced set-up — what the determinism tests compare.
pub fn probe(kind: Kind, scale: &Scale, seed: u64, steps: usize) -> (u64, BTreeMap<String, f64>) {
    match kind {
        Kind::ServeCold => probe_workload::<serve::ServeCold>(scale, seed, steps),
        Kind::ServeIngest => probe_workload::<serve::ServeIngest>(scale, seed, steps),
        Kind::LodoStudy => probe_workload::<lodo::LodoStudy>(scale, seed, steps),
    }
}

fn probe_workload<W: Workload>(
    scale: &Scale,
    seed: u64,
    steps: usize,
) -> (u64, BTreeMap<String, f64>) {
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let mut cap = Capture::start();
    let mut w = W::setup(scale, seed, &mut checks);
    for _ in 0..steps {
        w.step(&mut tally, &mut checks);
        cap.absorb();
    }
    let captured = cap.stop();
    w.finish(&mut checks);
    assert!(checks.ok(), "output checks failed: {:?}", checks.failures());
    let mut counters: BTreeMap<String, f64> = tally
        .sums
        .iter()
        .filter(|(k, _)| {
            k.starts_with("stage.") && !k.ends_with(".s") || **k == "blocking.candidates"
        })
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    for c in ["qgemm.flops", "finetune.tokens", "lm.prefix_tokens_saved"] {
        counters.insert(c.to_string(), captured.counter(c));
    }
    (w.digest(), counters)
}

/// Runs operations until `seconds` have passed (and at least
/// `min_steps` ran), or a check fails, or the inputs run out.
fn phase<W: Workload>(
    w: &mut W,
    seconds: f64,
    min_steps: usize,
    checks: &mut Checks,
    mut cap: Option<&mut Capture>,
) -> Tally {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let mut steps = 0;
    while checks.ok()
        && !w.exhausted()
        && (steps < min_steps || t0.elapsed().as_secs_f64() < seconds)
    {
        w.step(&mut tally, checks);
        if let Some(c) = cap.as_deref_mut() {
            c.absorb();
        }
        steps += 1;
    }
    tally
}

fn run_workload<W: Workload>(scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let host = host::fingerprint();
    eprintln!("{}", host.summary());
    let mut checks = Checks::default();
    if trace {
        return run_traced::<W>(scale, seed, seconds, host, checks);
    }
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let t0 = Instant::now();
        fixture = Some(W::setup(scale, seed, &mut checks));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = fixture.expect("set up at least once");
    let tally = phase(&mut w, seconds, W::MIN_STEPS, &mut checks, None);
    let quality = w.finish(&mut checks);
    let (tail_s, tail_pct) = tail(&tally.latencies_s);
    eprintln!(
        "batch latency: {} samples, p50 {:.1} ms, tail (p{tail_pct:.1}) {:.1} ms; set-ups {setup_s:.3?} s",
        tally.ops(),
        median(&tally.latencies_s) * 1e3,
        tail_s * 1e3,
    );
    // Medians over operations, so one operation slowed by a neighbour on
    // the host does not move the run's figure.
    let values = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("pairs_per_s", median(&tally.pairs_per_s)),
        ("items_per_s", median(&tally.items_per_s)),
        ("batch_p50_ms", median(&tally.latencies_s) * 1e3),
        ("batch_tail_ms", tail_s * 1e3),
        ("f1", quality.f1),
        ("usd_per_1k_pairs", quality.usd_per_1k_pairs),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    outcome(checks, tally.attempted, tally.failed, END_TO_END, &values)
}

fn run_traced<W: Workload>(
    scale: &Scale,
    seed: u64,
    seconds: f64,
    host: host::Host,
    mut checks: Checks,
) -> Outcome {
    let cap = Capture::start();
    let mut w = W::setup(scale, seed, &mut checks);
    let setup = cap.stop();
    // Each half runs at least one operation; together they still cover
    // the workload's minimum, so the cross-operation checks hold.
    let plain = phase(&mut w, seconds / 2.0, 1, &mut checks, None);
    let mut cap = Capture::start();
    let traced = phase(&mut w, seconds / 2.0, 1, &mut checks, Some(&mut cap));
    let captured = cap.stop();
    w.finish(&mut checks);
    if captured.dropped > 0 {
        eprintln!(
            "warning: the trace sink dropped {} records",
            captured.dropped
        );
    }
    let per_op = |t: &Tally| t.busy_s() / t.ops().max(1) as f64;
    let overhead = if plain.ops() > 0 && traced.ops() > 0 {
        per_op(&traced) / per_op(&plain) - 1.0
    } else {
        0.0
    };
    let mut values = per_layer(&traced, &captured, &setup, w.workers());
    values.extend(host.metrics());
    values.insert("trace.overhead_frac", overhead);
    outcome(
        checks,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        PER_LAYER,
        &values,
    )
}

fn outcome(
    checks: Checks,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Outcome {
    for f in checks.failures() {
        eprintln!("check failed: {f}");
    }
    let metrics: Vec<_> = names
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Outcome {
        correct: checks.ok() && finite && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Per-layer values from the traced phase; counts and seconds are per
/// operation.
fn per_layer(
    t: &Tally,
    c: &Captured,
    setup: &Captured,
    workers: usize,
) -> BTreeMap<&'static str, f64> {
    let ops = t.ops().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut v = BTreeMap::new();
    for k in [
        "store.render_s",
        "store.append_s",
        "blocking.s",
        "blocking.candidates",
        "stage.strsim.s",
        "stage.strsim.scored",
        "stage.strsim.escalated",
        "stage.strsim.tokens",
        "stage.slm.s",
        "stage.slm.scored",
        "stage.slm.escalated",
        "stage.slm.tokens",
        "stage.hosted.s",
        "stage.hosted.scored",
        "stage.hosted.escalated",
        "stage.hosted.tokens",
    ] {
        v.insert(k, t.sum(k) / ops);
    }
    for (k, counter) in [
        ("blocking.candidates_raw", "block.candidates_raw"),
        ("blocking.postings", "block.postings"),
        ("cache.evictions", "serve.cache_evicted"),
        ("slm.pad_saved_tokens", "serve.bucket_pad_saved"),
        ("nn.qgemm_flops", "qgemm.flops"),
        ("nn.qgemm_calls", "qgemm.calls"),
        ("nn.attn_flops", "attn.flops"),
        ("nn.attn_calls", "attn.calls"),
        ("lm.prompt_tokens", "lm.prompt_tokens"),
        ("lm.prefix_tokens_saved", "lm.prefix_tokens_saved"),
        ("finetune.tokens", "finetune.tokens"),
        ("nn.gemm_flops", "gemm.flops"),
        ("workqueue.steals", "workqueue.steals"),
    ] {
        v.insert(k, c.counter(counter) / ops);
    }
    for (k, span) in [
        ("blocking.index_build_s", "block.index_build"),
        ("blocking.probe_s", "block.probe"),
        ("lm.score_s", "lm.score_batch"),
        ("finetune.step_s", "finetune.step"),
        ("optim.step_s", "optim.step"),
        ("nn.attn_backward_s", "attn.backward"),
        ("eval.fit_s", "eval.fit"),
        ("eval.predict_s", "eval.predict"),
    ] {
        v.insert(k, c.span_s(span) / ops);
    }
    for (k, scored, secs) in [
        (
            "stage.strsim.pairs_per_s",
            "stage.strsim.scored",
            "stage.strsim.s",
        ),
        ("stage.slm.pairs_per_s", "stage.slm.scored", "stage.slm.s"),
        (
            "stage.hosted.pairs_per_s",
            "stage.hosted.scored",
            "stage.hosted.s",
        ),
    ] {
        v.insert(k, ratio(t.sum(scored), t.sum(secs)));
    }
    v.insert(
        "cache.hit_rate",
        ratio(t.sum("stages.cache_hits"), t.sum("stages.pairs_in")),
    );
    v.insert(
        "pipeline.stage_overlap",
        ratio(t.sum("stages.s"), t.sum("run.s") - t.sum("blocking.s")),
    );
    v.insert(
        "lm.prefix_hit_rate",
        ratio(c.counter("lm.prefix_hits"), c.counter("lm.pairs_scored")),
    );
    let (tokens, saved) = (
        c.counter("finetune.tokens"),
        c.counter("finetune.padded_tokens_saved"),
    );
    v.insert("finetune.pad_saved_frac", ratio(saved, tokens + saved));
    v.insert(
        "finetune.tokens_per_s",
        ratio(tokens, c.span_s("finetune.step")),
    );
    v.insert("setup.finetune.tokens", setup.counter("finetune.tokens"));
    v.insert("setup.finetune.step_s", setup.span_s("finetune.step"));
    v.insert(
        "setup.finetune.tokens_per_s",
        ratio(
            setup.counter("finetune.tokens"),
            setup.span_s("finetune.step"),
        ),
    );
    v.insert(
        "eval.busy_frac",
        ratio(c.span_s("eval.item"), workers as f64 * t.busy_s()),
    );
    // The program counts granted reservations only (a refused request is
    // not counted), so this is the share of the spare budget a granted
    // reservation received.
    let spare = (em_nn::threadpool::max_threads().saturating_sub(1)) as f64;
    v.insert(
        "threadpool.grant_frac",
        ratio(
            c.counter("threadpool.workers_granted"),
            c.counter("threadpool.reservations") * spare,
        ),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_fills_exactly_the_declared_metrics() {
        let mut values = per_layer(
            &Tally::default(),
            &Captured::default(),
            &Captured::default(),
            1,
        );
        values.extend(host::fingerprint().metrics());
        values.insert("trace.overhead_frac", 0.0);
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        let produced: Vec<&str> = values.keys().copied().collect();
        let mut sorted = declared.clone();
        sorted.sort_unstable();
        assert_eq!(produced, sorted);
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
