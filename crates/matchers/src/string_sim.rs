//! The StringSim baseline: serializes both tuples (comma-joined values)
//! and predicts a match when the Ratcliff/Obershelp similarity — the
//! algorithm behind Python's `difflib` — exceeds 0.5 (Section 4.1,
//! "Parameter-free baselines").

use em_core::{run_chunks, EmError, EvalBatch, LodoSplit, Matcher, Result, SerializedPair};
use em_text::ratcliff_obershelp;

/// Parameter-free string-similarity matcher.
#[derive(Debug, Clone)]
pub struct StringSim {
    /// Decision threshold (0.5 in the paper).
    pub threshold: f64,
}

impl StringSim {
    /// StringSim with the paper's 0.5 threshold.
    pub fn new() -> Self {
        StringSim { threshold: 0.5 }
    }

    /// StringSim with a custom threshold (for ablations).
    pub fn with_threshold(threshold: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(EmError::Config(format!(
                "threshold {threshold} outside [0,1]"
            )));
        }
        Ok(StringSim { threshold })
    }
}

impl Default for StringSim {
    fn default() -> Self {
        Self::new()
    }
}

/// Pairs scored per parallel work item.
const SIM_CHUNK: usize = 64;

impl StringSim {
    /// Maps every pair's similarity through `f`, fanning the batch out in
    /// [`SIM_CHUNK`]-pair chunks over the shared threadpool; chunk-order
    /// merge keeps input order, so the result is the per-pair map at any
    /// thread count.
    fn map_sims<R: Send>(&self, batch: &EvalBatch, f: impl Fn(f64) -> R + Sync) -> Result<Vec<R>> {
        let chunks: Vec<&[SerializedPair]> = batch.serialized.chunks(SIM_CHUNK).collect();
        Ok(run_chunks(&chunks, |chunk| {
            chunk
                .iter()
                .map(|p| {
                    f(ratcliff_obershelp(
                        &p.left.to_lowercase(),
                        &p.right.to_lowercase(),
                    ))
                })
                .collect::<Vec<R>>()
        })?
        .into_iter()
        .flatten()
        .collect())
    }
}

impl Matcher for StringSim {
    fn name(&self) -> String {
        "StringSim".into()
    }

    fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
        Ok(()) // parameter-free
    }

    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        let t = self.threshold;
        self.map_sims(batch, |sim| sim > t)
    }

    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        // Piecewise-linear calibration that pins the decision boundary to
        // 0.5: similarities at or below the threshold spread over
        // [0, 0.5), above it over (0.5, 1]. `predict` is strict-greater,
        // so the boundary sim == t belongs to the non-match side — it
        // lands one ulp below 0.5, keeping `score >= 0.5 ⇔ sim > t`
        // exact for every threshold while |2s − 1| grows with the margin.
        let below_half = f32::from_bits(0.5f32.to_bits() - 1);
        let t = self.threshold;
        self.map_sims(batch, |sim| {
            if sim <= t {
                if t <= 0.0 {
                    // threshold 0: only sim == 0 lands here, and
                    // predict says non-match (strict greater).
                    0.0
                } else {
                    ((0.5 * sim / t) as f32).min(below_half)
                }
            } else if t >= 1.0 {
                // unreachable (sim ≤ 1 ≤ t), kept for totality
                1.0
            } else {
                ((0.5 + 0.5 * (sim - t) / (1.0 - t)) as f32).max(0.5)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::{Record, RecordPair};

    fn batch(pairs: Vec<(&str, &str)>) -> EvalBatch {
        EvalBatch {
            serialized: pairs
                .iter()
                .map(|(l, r)| SerializedPair {
                    left: (*l).into(),
                    right: (*r).into(),
                })
                .collect(),
            raw: pairs
                .iter()
                .map(|_| RecordPair::new(Record::new(0, vec![]), Record::new(1, vec![])))
                .collect(),
            attr_types: vec![],
        }
    }

    #[test]
    fn identical_strings_match() {
        let mut m = StringSim::new();
        let preds = m
            .predict(&batch(vec![("sony tv x100", "sony tv x100")]))
            .unwrap();
        assert_eq!(preds, vec![true]);
    }

    #[test]
    fn disjoint_strings_do_not_match() {
        let mut m = StringSim::new();
        let preds = m.predict(&batch(vec![("aaaa", "zzzz")])).unwrap();
        assert_eq!(preds, vec![false]);
    }

    #[test]
    fn comparison_is_case_insensitive() {
        let mut m = StringSim::new();
        let preds = m.predict(&batch(vec![("SONY TV", "sony tv")])).unwrap();
        assert_eq!(preds, vec![true]);
    }

    #[test]
    fn threshold_is_strict_greater() {
        // "ab" vs "bc": ratio 0.5 exactly → not a match at threshold 0.5.
        let mut m = StringSim::new();
        let preds = m.predict(&batch(vec![("ab", "bc")])).unwrap();
        assert_eq!(preds, vec![false]);
    }

    #[test]
    fn custom_threshold_validated() {
        assert!(StringSim::with_threshold(0.7).is_ok());
        assert!(StringSim::with_threshold(1.5).is_err());
        assert!(StringSim::with_threshold(-0.1).is_err());
    }

    #[test]
    fn is_parameter_free() {
        let m = StringSim::new();
        assert_eq!(m.params_millions(), None);
    }

    #[test]
    fn scores_agree_with_predict_everywhere_including_the_boundary() {
        // "ab" vs "bc" has similarity exactly 0.5 = the threshold;
        // predict is strict-greater so the score must fall below 0.5.
        for threshold in [0.0, 0.3, 0.5, 0.9, 1.0] {
            let mut m = StringSim::with_threshold(threshold).unwrap();
            let b = batch(vec![
                ("ab", "bc"),
                ("sony tv x100", "sony tv x100"),
                ("aaaa", "zzzz"),
                ("sony tv", "sony tv bravia"),
            ]);
            let preds = m.predict(&b).unwrap();
            let scores = m.predict_scores(&b).unwrap();
            for (p, s) in preds.iter().zip(&scores) {
                assert!((0.0..=1.0).contains(s));
                assert_eq!(*p, *s >= 0.5, "t={threshold}: pred {p} vs score {s}");
            }
        }
    }

    #[test]
    fn chunked_batches_equal_per_pair_scoring_at_any_thread_count() {
        let owned: Vec<(String, String)> = (0..150)
            .map(|i| (format!("sony tv x{i}"), format!("sony tv x{}", i * 7 % 150)))
            .chain([("ab".into(), "bc".into()), ("aaaa".into(), "zzzz".into())])
            .collect();
        let b = batch(
            owned
                .iter()
                .map(|(l, r)| (l.as_str(), r.as_str()))
                .collect(),
        );
        for threshold in [0.0, 0.5, 1.0] {
            let mut m = StringSim::with_threshold(threshold).unwrap();
            let per_pair: Vec<u32> = owned
                .iter()
                .map(|(l, r)| m.predict_scores(&batch(vec![(l, r)])).unwrap()[0].to_bits())
                .collect();
            for threads in [1, 2, 8] {
                em_nn::threadpool::set_max_threads(Some(threads));
                let scores = m.predict_scores(&b).unwrap();
                let preds = m.predict(&b).unwrap();
                em_nn::threadpool::set_max_threads(None);
                let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, per_pair, "t={threshold}, {threads} threads");
                let want: Vec<bool> = scores.iter().map(|&s| s >= 0.5).collect();
                assert_eq!(preds, want, "t={threshold}, {threads} threads");
            }
        }
    }

    #[test]
    fn score_margin_grows_with_similarity() {
        let mut m = StringSim::new();
        let b = batch(vec![
            ("sony tv x100", "sony tv x100"), // identical
            ("sony tv x100", "sony tv x200"), // near
            ("sony tv x100", "zzzz qqqq"),    // far
        ]);
        let s = m.predict_scores(&b).unwrap();
        assert_eq!(s[0], 1.0);
        assert!(s[1] > 0.5 && s[1] < 1.0);
        assert!(s[2] < 0.5);
        // confidence |2s-1| orders identical > near
        assert!((2.0 * s[0] - 1.0).abs() > (2.0 * s[1] - 1.0).abs());
    }
}
