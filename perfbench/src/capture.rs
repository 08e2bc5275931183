//! Traced-phase capture: em-obs counter deltas and span totals.
//!
//! Everything read here is what the program already emits; the benchmark
//! adds no counter or span to it. Some counters (GEMM, attention, zoo,
//! thread pool) only count while capture is on, so they are read from
//! traced runs only.

use em_obs::metrics::counter;
use em_obs::RecordKind;
use std::collections::BTreeMap;

/// Counters whose deltas feed the per-layer metrics.
pub const COUNTERS: &[&str] = &[
    "attn.calls",
    "attn.flops",
    "block.candidates_raw",
    "block.postings",
    "finetune.padded_tokens_saved",
    "finetune.tokens",
    "gemm.flops",
    "lm.pairs_scored",
    "lm.prefix_hits",
    "lm.prefix_tokens_saved",
    "lm.prompt_tokens",
    "qgemm.calls",
    "qgemm.flops",
    "serve.bucket_pad_saved",
    "serve.cache_evicted",
    "threadpool.reservations",
    "threadpool.workers_granted",
    "workqueue.steals",
];

/// Spans whose durations feed the per-layer metrics.
pub const SPANS: &[&str] = &[
    "attn.backward",
    "block.index_build",
    "block.probe",
    "eval.fit",
    "eval.item",
    "eval.predict",
    "finetune.step",
    "lm.score_batch",
    "optim.step",
];

/// An open capture window.
pub struct Capture {
    before: Vec<u64>,
    span_ns: BTreeMap<&'static str, u64>,
    dropped_before: u64,
}

/// What a closed capture window saw.
#[derive(Debug, Default, Clone)]
pub struct Captured {
    /// Counter deltas by counter name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Span totals by span name, seconds.
    pub spans_s: BTreeMap<&'static str, f64>,
    /// Trace records the sink discarded during the window.
    pub dropped: u64,
}

impl Captured {
    /// A counter delta (0 when the counter never moved).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A span total in seconds (0 when the span never closed).
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans_s.get(name).copied().unwrap_or(0.0)
    }
}

impl Capture {
    /// Turns capture on and snapshots the counters.
    pub fn start() -> Capture {
        em_obs::set_capture(true);
        let _ = em_obs::drain();
        Capture {
            before: COUNTERS.iter().map(|c| counter(c).get()).collect(),
            span_ns: BTreeMap::new(),
            dropped_before: em_obs::trace::dropped_records(),
        }
    }

    /// Folds the records closed so far into the span totals. Call it
    /// between operations so the in-memory sink never fills.
    pub fn absorb(&mut self) {
        for r in em_obs::drain() {
            if r.kind != RecordKind::Span {
                continue;
            }
            if let Some(name) = SPANS.iter().find(|s| **s == r.name) {
                *self.span_ns.entry(name).or_insert(0) += r.dur_ns;
            }
        }
    }

    /// Turns capture off and returns the window's deltas.
    pub fn stop(mut self) -> Captured {
        self.absorb();
        em_obs::set_capture(false);
        let counters = COUNTERS
            .iter()
            .zip(&self.before)
            .map(|(c, b)| (*c, counter(c).get().saturating_sub(*b) as f64))
            .collect();
        Captured {
            counters,
            spans_s: self
                .span_ns
                .into_iter()
                .map(|(k, ns)| (k, ns as f64 * 1e-9))
                .collect(),
            dropped: em_obs::trace::dropped_records() - self.dropped_before,
        }
    }
}
