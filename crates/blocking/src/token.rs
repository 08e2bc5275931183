//! Token blocking: two records become a candidate pair when they share at
//! least `min_shared` word tokens. The classic high-recall baseline.

use crate::index::{overlap_candidates, CandidateSet, IndexConfig, RelationIndex};
use crate::{Blocker, CandidatePair};

/// Token (word-overlap) blocker.
#[derive(Debug, Clone, Copy)]
pub struct TokenBlocker {
    /// Minimum number of shared tokens for a candidate.
    pub min_shared: usize,
    /// Tokens occurring in more than this fraction of records are treated
    /// as stop words and ignored (prevents quadratic blowup on "the").
    pub max_token_frequency: f64,
}

impl Default for TokenBlocker {
    fn default() -> Self {
        TokenBlocker {
            min_shared: 1,
            max_token_frequency: 0.2,
        }
    }
}

impl Blocker for TokenBlocker {
    fn required_features(&self) -> IndexConfig {
        IndexConfig {
            tokens: true,
            ..IndexConfig::none()
        }
    }

    /// Shared-token candidates over prebuilt indexes. Document frequency
    /// spans *both* relations (the PR 7 stop-cut semantics) and the cut
    /// runs before any posting expansion; the banded parallel probe is
    /// bitwise-identical to [`crate::reference::token_candidates`].
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
            left.tokens().expect("left index built without tokens"),
            right.tokens().expect("right index built without tokens"),
            self.min_shared,
            self.max_token_frequency,
            prior,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::{AttrValue, Record};

    fn rec(id: u64, text: &str) -> Record {
        Record::new(id, vec![AttrValue::from(text)])
    }

    #[test]
    fn shared_token_produces_candidate() {
        let left = vec![rec(0, "sony camera"), rec(1, "nikon lens")];
        let right = vec![rec(10, "sony tv"), rec(11, "canon printer")];
        let c = TokenBlocker::default().candidates(&left, &right);
        assert_eq!(c, vec![(0, 0)]); // "sony"
    }

    #[test]
    fn min_shared_two_requires_two_tokens() {
        let left = vec![rec(0, "sony alpha camera")];
        let right = vec![rec(10, "sony camera bag"), rec(11, "sony tv")];
        let blocker = TokenBlocker {
            min_shared: 2,
            // Three records total, so at the default 0.2 every token hits
            // the stop cut; disable it — this test is about min_shared.
            max_token_frequency: 1.0,
        };
        let c = blocker.candidates(&left, &right);
        assert_eq!(c, vec![(0, 0)]); // shares "sony" + "camera"
    }

    #[test]
    fn stop_cut_uses_both_relations_document_frequency() {
        // Skewed sizes: 20 left records all containing "brand", 4 right
        // records all containing "brand". Combined df = 24 out of 24
        // records, way past max_df = max(24 * 0.2, 2) = 4 — but the
        // right-only posting list is exactly 4, which slipped under the
        // pre-fix cut (`4 > 4` is false) and produced all 80 pairs.
        let left: Vec<Record> = (0..20).map(|i| rec(i, &format!("brand u{i}"))).collect();
        let right: Vec<Record> = (0..4)
            .map(|j| rec(j + 100, &format!("brand v{j}")))
            .collect();
        let c = TokenBlocker::default().candidates(&left, &right);
        assert!(
            c.is_empty(),
            "token present in every record must be stopped, got {} candidates",
            c.len()
        );
    }

    #[test]
    fn frequent_tokens_are_stopped() {
        // "item" appears everywhere; without the stop-word cut every pair
        // would be a candidate.
        let left: Vec<Record> = (0..20).map(|i| rec(i, &format!("item l{i}"))).collect();
        let right: Vec<Record> = (0..20)
            .map(|i| rec(i + 100, &format!("item r{i}")))
            .collect();
        let c = TokenBlocker::default().candidates(&left, &right);
        assert!(
            c.is_empty(),
            "stop word must not create {} candidates",
            c.len()
        );
    }

    #[test]
    fn no_shared_tokens_no_candidates() {
        let left = vec![rec(0, "alpha beta")];
        let right = vec![rec(10, "gamma delta")];
        assert!(TokenBlocker::default().candidates(&left, &right).is_empty());
    }
}
