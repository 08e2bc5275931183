//! Metric names and units, the per-run tally, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run of every workload.
/// `BENCHMARK.json` lists the same names, units and directions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pairs_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("f1", "%"),
    ("usd_per_1k_pairs", "usd"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not execute reads 0. Counts and seconds are per
/// closed-loop operation (cold pass, ingest batch, study pass) of the
/// traced phase; `setup.*` cover one traced set-up; `host.*` describe the
/// machine.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.available_parallelism", "count"),
    ("host.thread_budget", "count"),
    ("host.cpu_avx512f", "flag"),
    ("host.cpu_avx512vnni", "flag"),
    ("host.kernel_avx512f", "flag"),
    ("host.kernel_avx512vnni", "flag"),
    ("store.render_s", "s"),
    ("store.append_s", "s"),
    ("blocking.s", "s"),
    ("blocking.index_build_s", "s"),
    ("blocking.probe_s", "s"),
    ("blocking.candidates", "count"),
    ("blocking.candidates_raw", "count"),
    ("blocking.postings", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("pipeline.stage_overlap", "ratio"),
    ("stage.strsim.s", "s"),
    ("stage.strsim.scored", "count"),
    ("stage.strsim.escalated", "count"),
    ("stage.strsim.pairs_per_s", "1/s"),
    ("stage.strsim.tokens", "count"),
    ("stage.slm.s", "s"),
    ("stage.slm.scored", "count"),
    ("stage.slm.escalated", "count"),
    ("stage.slm.pairs_per_s", "1/s"),
    ("stage.slm.tokens", "count"),
    ("stage.hosted.s", "s"),
    ("stage.hosted.scored", "count"),
    ("stage.hosted.escalated", "count"),
    ("stage.hosted.pairs_per_s", "1/s"),
    ("stage.hosted.tokens", "count"),
    ("slm.pad_saved_tokens", "count"),
    ("nn.qgemm_flops", "flop"),
    ("nn.qgemm_calls", "count"),
    ("nn.attn_flops", "flop"),
    ("nn.attn_calls", "count"),
    ("lm.prompt_tokens", "count"),
    ("lm.prefix_tokens_saved", "count"),
    ("lm.prefix_hit_rate", "frac"),
    ("lm.score_s", "s"),
    ("finetune.tokens", "count"),
    ("finetune.pad_saved_frac", "frac"),
    ("finetune.step_s", "s"),
    ("finetune.tokens_per_s", "1/s"),
    ("optim.step_s", "s"),
    ("nn.attn_backward_s", "s"),
    ("nn.gemm_flops", "flop"),
    ("setup.finetune.tokens", "count"),
    ("setup.finetune.step_s", "s"),
    ("setup.finetune.tokens_per_s", "1/s"),
    ("eval.fit_s", "s"),
    ("eval.predict_s", "s"),
    ("eval.busy_frac", "frac"),
    ("workqueue.steals", "count"),
    ("threadpool.grant_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Output checks of one run. A failed check fails the run; it never
/// changes a metric.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `msg` as a failure unless `ok`.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }

    /// `true` while no check has failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks, in the order they failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// What the timed phase of one run measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of each sampled operation, seconds.
    pub latencies_s: Vec<f64>,
    /// Pairs decided per second, per sampled operation.
    pub pairs_per_s: Vec<f64>,
    /// Workload items completed per second, per sampled operation.
    pub items_per_s: Vec<f64>,
    /// Operations attempted, in the workload's failure unit.
    pub attempted: u64,
    /// Operations failed, in the same unit.
    pub failed: u64,
    /// Layer quantities summed over the sampled operations.
    pub sums: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// Records one operation.
    pub fn sample(&mut self, latency_s: f64, pairs: f64, items: f64) {
        self.latencies_s.push(latency_s);
        self.pairs_per_s.push(pairs / latency_s);
        self.items_per_s.push(items / latency_s);
    }

    /// Adds `v` to the layer sum `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// A layer sum (0 when never added).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Seconds spent inside sampled operations.
    pub fn busy_s(&self) -> f64 {
        self.latencies_s.iter().sum()
    }

    /// Number of sampled operations.
    pub fn ops(&self) -> usize {
        self.latencies_s.len()
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail latency: the highest order statistic with at least ten
/// samples beyond it, and the percentile it sits at. With ten samples or
/// fewer no percentile qualifies and the maximum is returned (percentile
/// 100).
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 100.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    let k = n - 11;
    (s[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: the output digest the checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The last line a run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// One JSON object with the keys `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values are not JSON; a run with one already reads
            // `"correct": false`, so print them as 0.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (t, pct) = tail(&v);
        assert_eq!(t, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn outcome_prints_every_digit() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_ms", 1.2345678901, "ms")],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2345678901, \"unit\": \"ms\"}}}"
        );
    }
}
