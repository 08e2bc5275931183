//! The `Matcher` abstraction shared by all approaches in the study.
//!
//! A cross-dataset matcher is fitted on the transfer pool of a LODO split
//! (never on target data) and then predicts match/non-match for a batch of
//! serialized pairs from the unseen target. Matchers that the paper
//! documents as (partially) violating the cross-dataset restrictions —
//! ZeroER needs column types and batch access — read the `raw` /
//! `attr_types` fields of the [`EvalBatch`], which exist for exactly that
//! purpose and are documented as a restriction escape hatch.

use crate::dataset::DatasetId;
use crate::error::Result;
use crate::lodo::LodoSplit;
use crate::pair::RecordPair;
use crate::record::AttrType;
use crate::serialize::SerializedPair;

/// A batch of target-dataset pairs to classify.
#[derive(Debug, Clone)]
pub struct EvalBatch {
    /// Restriction-compliant view: serialized attribute values only, under
    /// the repetition seed's column permutation.
    pub serialized: Vec<SerializedPair>,
    /// Raw records. Only for matchers documented to violate Restriction 2
    /// (ZeroER); all language-model matchers must ignore this field.
    pub raw: Vec<RecordPair>,
    /// Column types of the raw records (same caveat as `raw`).
    pub attr_types: Vec<AttrType>,
}

impl EvalBatch {
    /// Number of pairs in the batch.
    pub fn len(&self) -> usize {
        self.serialized.len()
    }

    /// `true` if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.serialized.is_empty()
    }
}

/// Common interface of every matcher in the study.
pub trait Matcher: Send {
    /// Human-readable name as printed in the paper's tables
    /// (e.g. `"AnyMatch [LLaMA3.2]"`).
    fn name(&self) -> String;

    /// Parameter count in millions, if the approach has parameters
    /// (Tables 3/5; `None` for parameter-free methods).
    fn params_millions(&self) -> Option<f64> {
        None
    }

    /// Fits / prepares the matcher for one LODO target using only the
    /// transfer pool. `seed` controls all stochastic choices (serialization
    /// column order, sampling, initialization) for the repetition protocol.
    ///
    /// Parameter-free matchers may implement this as a no-op.
    fn fit(&mut self, split: &LodoSplit<'_>, seed: u64) -> Result<()>;

    /// Predicts match / non-match for every pair in the batch.
    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>>;

    /// Predicts a match score in `[0, 1]` for every pair, where `>= 0.5`
    /// means match. The score's distance from the decision boundary is a
    /// confidence signal — `|2s − 1|` — which the serving cascade uses to
    /// decide whether a pair escalates to a more expensive matcher.
    ///
    /// The default degrades to hard labels (0.0 / 1.0, i.e. maximum
    /// confidence, never escalated); matchers with a real score surface
    /// should override.
    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        Ok(self
            .predict(batch)?
            .into_iter()
            .map(|m| if m { 1.0 } else { 0.0 })
            .collect())
    }

    /// `true` if the matcher's underlying model saw this dataset during its
    /// own (pre-)training, violating the cross-dataset setup. Such scores
    /// are put in brackets in Table 3 (the Jellyfish caveat).
    fn saw_during_training(&self, _dataset: DatasetId) -> bool {
        false
    }

    /// `true` if the most recent [`Matcher::predict`] /
    /// [`Matcher::predict_scores`] call served degraded predictions — e.g.
    /// a hosted-LLM matcher whose circuit breaker was open fell back to its
    /// registered string-similarity tier. Every call (and
    /// [`Matcher::fit`]) resets it, so a caller scoring in several batches
    /// reads it after each. Matchers without a degraded mode keep the
    /// default.
    fn was_degraded(&self) -> bool {
        false
    }

    /// Exact tokens consumed per pair by the most recent
    /// [`Matcher::predict_scores`] / [`Matcher::predict`] call, for
    /// matchers that know their real token consumption (a local encoder
    /// knows its encoded lengths; a byte-counting heuristic does not).
    /// `None` means the caller should fall back to its approximation —
    /// the serialized-bytes/4 rule the price book uses. When `Some`, the
    /// vector is aligned with the batch that was scored.
    fn exact_billed_tokens(&self) -> Option<Vec<u64>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Benchmark, DatasetId};
    use crate::lodo::lodo_split;
    use crate::pair::LabeledPair;
    use crate::record::{AttrValue, Record};

    /// A trivial always-"no" matcher used to exercise the trait surface.
    struct AlwaysNo;

    impl Matcher for AlwaysNo {
        fn name(&self) -> String {
            "AlwaysNo".into()
        }
        fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
            Ok(())
        }
        fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
            Ok(vec![false; batch.len()])
        }
    }

    fn bench(id: DatasetId) -> Benchmark {
        Benchmark {
            id,
            attr_types: vec![AttrType::ShortText],
            pairs: vec![LabeledPair::new(
                Record::new(0, vec![AttrValue::from("x")]),
                Record::new(1, vec![AttrValue::from("x")]),
                true,
            )],
        }
    }

    #[test]
    fn trait_default_methods() {
        let m = AlwaysNo;
        assert_eq!(m.params_millions(), None);
        assert!(!m.saw_during_training(DatasetId::Abt));
    }

    #[test]
    fn default_scores_are_hard_labels() {
        let mut m = AlwaysNo;
        let batch = EvalBatch {
            serialized: vec![
                SerializedPair {
                    left: "a".into(),
                    right: "a".into(),
                },
                SerializedPair {
                    left: "a".into(),
                    right: "b".into(),
                },
            ],
            raw: vec![],
            attr_types: vec![],
        };
        // AlwaysNo has no score surface: the default maps its hard labels
        // to maximally-confident 0.0 / 1.0 scores consistent with predict.
        assert_eq!(m.predict_scores(&batch).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn batch_len_tracks_serialized() {
        let batch = EvalBatch {
            serialized: vec![SerializedPair {
                left: "a".into(),
                right: "b".into(),
            }],
            raw: vec![],
            attr_types: vec![],
        };
        assert_eq!(batch.len(), 1);
        assert!(!batch.is_empty());
    }

    #[test]
    fn fit_predict_cycle() {
        let suite: Vec<Benchmark> = DatasetId::ALL.iter().map(|&d| bench(d)).collect();
        let split = lodo_split(&suite, DatasetId::Abt).unwrap();
        let mut m = AlwaysNo;
        m.fit(&split, 0).unwrap();
        let batch = EvalBatch {
            serialized: vec![
                SerializedPair {
                    left: "a".into(),
                    right: "a".into(),
                },
                SerializedPair {
                    left: "a".into(),
                    right: "b".into(),
                },
            ],
            raw: vec![],
            attr_types: vec![],
        };
        assert_eq!(m.predict(&batch).unwrap(), vec![false, false]);
    }
}
