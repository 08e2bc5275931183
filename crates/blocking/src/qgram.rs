//! Q-gram blocking: candidates share at least `min_shared` character
//! q-grams of their key value — robust to typos that break token blocking.

use crate::index::{overlap_candidates, CandidateSet, IndexConfig, RelationIndex};
use crate::{Blocker, CandidatePair};
use em_core::Record;

/// Q-gram blocker over the first attribute (the key value).
#[derive(Debug, Clone, Copy)]
pub struct QGramBlocker {
    /// Gram length.
    pub q: usize,
    /// Minimum shared grams.
    pub min_shared: usize,
    /// Grams occurring in more than this fraction of records (document
    /// frequency over both relations, same semantics as
    /// `TokenBlocker::max_token_frequency`) are cut. Without this, a
    /// common gram ("the", " 20") indexes a posting list covering most
    /// of the right relation and the probe loop goes quadratic.
    pub max_gram_frequency: f64,
}

impl Default for QGramBlocker {
    fn default() -> Self {
        QGramBlocker {
            q: 3,
            min_shared: 3,
            max_gram_frequency: 0.2,
        }
    }
}

/// Sorted, deduped q-grams of a record's key (first) attribute — the
/// feature extraction shared by the index build and the reference path.
pub(crate) fn key_grams(record: &Record, q: usize) -> Vec<String> {
    let key = record
        .values
        .first()
        .map(|v| v.render().to_lowercase())
        .unwrap_or_default();
    let mut grams = em_text::qgrams(&key, q);
    grams.sort_unstable();
    grams.dedup();
    grams
}

impl Blocker for QGramBlocker {
    fn required_features(&self) -> IndexConfig {
        IndexConfig {
            qgrams: Some(self.q),
            ..IndexConfig::none()
        }
    }

    /// Shared-gram candidates over prebuilt indexes; the df cut runs
    /// before any posting expansion, and the banded parallel probe is
    /// bitwise-identical to [`crate::reference::qgram_candidates`].
    fn candidates_indexed(
        &self,
        left: &RelationIndex,
        right: &RelationIndex,
    ) -> Vec<CandidatePair> {
        self.candidates_grown(left, right, &CandidateSet::default())
            .expect("overlap blockers always resume")
            .into_pairs()
    }

    /// Resumes the overlap probe from `prior` (see
    /// [`crate::index::overlap_candidates`] for why it is exact).
    fn candidates_grown(
        &self,
        left: &RelationIndex,
        right: &RelationIndex,
        prior: &CandidateSet,
    ) -> Option<CandidateSet> {
        Some(overlap_candidates(
            left.qgrams(self.q)
                .expect("left index built without matching q-grams"),
            right
                .qgrams(self.q)
                .expect("right index built without matching q-grams"),
            self.min_shared,
            self.max_gram_frequency,
            prior,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::AttrValue;

    fn rec(id: u64, text: &str) -> Record {
        Record::new(id, vec![AttrValue::from(text)])
    }

    #[test]
    fn survives_typos_that_break_token_blocking() {
        let left = vec![rec(0, "powershot")];
        let right = vec![rec(10, "powershoot"), rec(11, "different")];
        let c = QGramBlocker::default().candidates(&left, &right);
        assert_eq!(c, vec![(0, 0)]);
    }

    #[test]
    fn disjoint_keys_are_not_candidates() {
        let left = vec![rec(0, "aaaa")];
        let right = vec![rec(10, "zzzz")];
        assert!(QGramBlocker::default().candidates(&left, &right).is_empty());
    }

    #[test]
    fn min_shared_controls_strictness() {
        let left = vec![rec(0, "abcdef")];
        let right = vec![rec(10, "abcxyz")];
        // They share grams around "abc" only.
        let loose = QGramBlocker {
            q: 3,
            min_shared: 1,
            ..Default::default()
        };
        assert_eq!(loose.candidates(&left, &right).len(), 1);
        let strict = QGramBlocker {
            q: 3,
            min_shared: 5,
            ..Default::default()
        };
        assert!(strict.candidates(&left, &right).is_empty());
    }

    #[test]
    fn frequent_grams_are_cut_before_the_posting_loop() {
        // Every key shares the long prefix "the 2020 widget ", whose grams
        // have df = 60 out of 60 records — far past max(60·0.2, 2) = 12.
        // Pre-fix each of those grams carried a 30-long posting list and
        // every one of the 900 cross pairs shared ≥ 3 grams. With the cut
        // only the distinct suffixes remain, which share at most 2 grams.
        let left: Vec<Record> = (0..30)
            .map(|i| rec(i, &format!("the 2020 widget l{i:02}")))
            .collect();
        let right: Vec<Record> = (0..30)
            .map(|j| rec(j + 100, &format!("the 2020 widget r{j:02}")))
            .collect();
        let c = QGramBlocker::default().candidates(&left, &right);
        assert!(
            c.is_empty(),
            "ubiquitous prefix grams must be cut, got {} candidates",
            c.len()
        );
        // Disabling the cut restores the (pathological) pre-fix behaviour,
        // pinning that the cut — not some other change — removed them.
        let uncut = QGramBlocker {
            max_gram_frequency: 1.0,
            ..Default::default()
        };
        assert_eq!(uncut.candidates(&left, &right).len(), 900);
    }
}
