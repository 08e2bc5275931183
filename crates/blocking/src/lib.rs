//! # em-blocking — candidate-set generation
//!
//! "Real-world entity matching systems typically first apply a blocking
//! function to the set R_l × R_r to form smaller candidate sets as input to
//! the matcher" (Section 2.1). The study evaluates matchers only, noting
//! they "can be easily plugged into existing matching systems"; this crate
//! provides that surrounding system: token blocking, q-gram blocking,
//! sorted neighbourhood, and the quality metrics (pair completeness /
//! reduction ratio) used to evaluate blockers.

pub mod index;
pub mod metrics;
pub mod qgram;
pub mod reference;
pub mod sorted;
pub mod token;

pub use index::{CandidateSet, FeatureTable, IndexConfig, RelationIndex};
pub use metrics::{pair_completeness, reduction_ratio, BlockingQuality};
pub use qgram::QGramBlocker;
pub use sorted::SortedNeighbourhood;
pub use token::TokenBlocker;

use em_core::Record;
use std::collections::HashSet;

/// A candidate pair referenced by indices into the two input relations.
pub type CandidatePair = (usize, usize);

/// Common interface of blocking techniques: produce candidate pairs from
/// two relations (deduplicated, sorted).
///
/// Every blocker declares the [`IndexConfig`] it needs and generates
/// candidates from two prebuilt [`RelationIndex`]es; the record-slice
/// entry point is a convenience that builds throwaway indexes. Systems
/// that run blocking repeatedly (the serving pipeline) keep the indexes
/// and call [`Blocker::candidates_indexed`] directly — the index build is
/// the expensive half of blocking, and it only depends on the relation.
/// When the relations only ever grow by appends, such systems extend the
/// indexes ([`RelationIndex::extend`]) and resume from the previous
/// candidates through [`Blocker::candidates_grown`].
pub trait Blocker {
    /// The features [`Blocker::candidates_indexed`] reads from its
    /// indexes.
    fn required_features(&self) -> IndexConfig {
        IndexConfig::none()
    }

    /// Generates candidate pairs `(left index, right index)` from
    /// prebuilt indexes. The indexes must cover
    /// [`Blocker::required_features`].
    fn candidates_indexed(
        &self,
        left: &RelationIndex,
        right: &RelationIndex,
    ) -> Vec<CandidatePair>;

    /// The growth entry: candidates over `left` × `right`, resumed from
    /// `prior` — the set this blocker returned when the two relations
    /// were prefixes of the indexed ones (its first
    /// [`CandidateSet::left_len`] / [`CandidateSet::right_len`] records).
    /// [`CandidateSet::default`] is the empty prefix, i.e. a cold probe.
    /// The result must equal [`Blocker::candidates_indexed`] bit for bit.
    ///
    /// Returns `None` when the blocker cannot resume (the default); the
    /// caller then probes cold. Sorted neighbourhood is one such blocker:
    /// an appended record shifts every window after its sort position.
    fn candidates_grown(
        &self,
        _left: &RelationIndex,
        _right: &RelationIndex,
        _prior: &CandidateSet,
    ) -> Option<CandidateSet> {
        None
    }

    /// Generates candidate pairs `(left index, right index)`, building
    /// single-use indexes for both relations.
    fn candidates(&self, left: &[Record], right: &[Record]) -> Vec<CandidatePair> {
        let cfg = self.required_features();
        let li = RelationIndex::build(left, &cfg);
        let ri = RelationIndex::build(right, &cfg);
        self.candidates_indexed(&li, &ri)
    }
}

/// Sorts and deduplicates a raw candidate list (shared by implementations).
pub(crate) fn normalize(mut pairs: Vec<CandidatePair>) -> Vec<CandidatePair> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Renders a record to the lowercase concatenation of its values (blockers
/// observe the same value-only view as cross-dataset matchers).
pub(crate) fn record_text(record: &Record) -> String {
    let mut parts = Vec::with_capacity(record.values.len());
    for v in &record.values {
        let s = v.render().to_lowercase();
        if !s.is_empty() {
            parts.push(s);
        }
    }
    parts.join(" ")
}

/// The stop cut threshold shared by the indexed and reference paths: a
/// feature present in more than `max_fraction` of all records (both
/// relations) is a stop feature. The `max(2.0)` floor keeps tiny
/// relations from stopping everything.
pub(crate) fn stop_threshold(total_records: usize, max_fraction: f64) -> usize {
    (total_records as f64 * max_fraction).max(2.0) as usize
}

/// Exhaustive cross product (the baseline blockers are compared against).
pub fn full_cross_product(left: &[Record], right: &[Record]) -> Vec<CandidatePair> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for i in 0..left.len() {
        for j in 0..right.len() {
            out.push((i, j));
        }
    }
    out
}

/// Set view of candidate pairs for metric computation.
pub fn pair_set(pairs: &[CandidatePair]) -> HashSet<CandidatePair> {
    pairs.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::AttrValue;

    fn rec(id: u64, text: &str) -> Record {
        Record::new(id, vec![AttrValue::from(text)])
    }

    #[test]
    fn cross_product_size() {
        let left = vec![rec(0, "a"), rec(1, "b")];
        let right = vec![rec(10, "c"), rec(11, "d"), rec(12, "e")];
        assert_eq!(full_cross_product(&left, &right).len(), 6);
    }

    #[test]
    fn normalize_dedups_and_sorts() {
        let pairs = vec![(2, 1), (0, 0), (2, 1), (1, 5)];
        assert_eq!(normalize(pairs), vec![(0, 0), (1, 5), (2, 1)]);
    }

    #[test]
    fn record_text_joins_lowercased_values() {
        let r = Record::new(
            0,
            vec![
                AttrValue::from("Sony TV"),
                AttrValue::Number(42.0),
                AttrValue::Missing,
            ],
        );
        assert_eq!(record_text(&r), "sony tv 42");
    }
}
