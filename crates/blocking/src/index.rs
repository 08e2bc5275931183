//! The reusable blocking index.
//!
//! Blocking was the serving pipeline's bottleneck after PR 7: tokenizing
//! 200k records, building a `HashMap<String, Vec<usize>>` inverted index
//! and accumulating shared-feature counts in a global
//! `HashMap<(i, j), usize>` ran single-threaded in ~21s at 100k×100k —
//! half the cold run — and ran *again* on every warm run. This module
//! replaces that path with a persistent, relation-scoped
//! [`RelationIndex`]:
//!
//! * **Parallel build.** Text rendering, tokenization and q-gram
//!   extraction fan out in fixed 512-record chunks over the shared
//!   `em_nn::threadpool` budget via [`em_core::run_chunks`] (results are
//!   collected in item order, so the extracted features are identical at
//!   any thread count). Features are interned to dense `u32` ids in
//!   record order and postings are laid out flat with a counting sort —
//!   no per-token allocation, postings ascending by construction.
//! * **Banded parallel probe.** The candidate loop partitions the left
//!   relation into fixed 1024-record bands; each band counts shared
//!   features in a dense `Vec<u32>` accumulator (a touched-list reset
//!   keeps it O(work), not O(n_right) per record) and emits its pairs
//!   already sorted. Band outputs are concatenated in band order, so the
//!   result is bitwise-identical to the sequential reference at 1, 2 or
//!   8 threads — the same equivalence discipline as the GEMM, attention
//!   and optimizer kernels (DESIGN.md §5/§8).
//! * **Reuse.** An index depends only on its relation's records (plus the
//!   feature configuration), so callers — notably
//!   `em_serve::ServePipeline` — build it once per store and probe it on
//!   every run.
//! * **Growth.** An append extends an index in place
//!   ([`RelationIndex::extend`]): only the new records are tokenized, new
//!   features are interned after the existing ids, and the postings are
//!   re-laid — the result equals a fresh build over all records. The
//!   overlap probe resumes from the previous [`CandidateSet`]: rows whose
//!   candidates cannot have changed keep their old pairs and probe only
//!   the right postings past the old right length (see
//!   [`overlap_candidates`] for the exactness argument). A cold probe is
//!   the resume from the empty prefix.
//!
//! Observability: `block.index_build` / `block.probe` spans,
//! `block.postings` (posting entries indexed), `block.stopped_tokens`
//! (features cut by the document-frequency threshold),
//! `block.candidates_raw` (probed pairs sharing ≥ 1 feature, before the
//! `min_shared` filter), `block.stop_flips` (features whose stop status
//! changed since the resumed probe) and `block.rows_reprobed` (old left
//! rows probed in full because they hold such a feature) counters.

use crate::{record_text, stop_threshold, CandidatePair};
use em_core::{run_chunks, Record};
use std::collections::HashMap;

/// Fixed record-chunk size for parallel feature extraction.
const EXTRACT_CHUNK: usize = 512;

/// Fixed left-relation band width for the parallel probe. Band boundaries
/// are independent of the thread count, and band outputs merge in band
/// order, so the candidate vector never depends on the worker budget.
const PROBE_BAND: usize = 1024;

/// Which features a [`RelationIndex`] must extract for a blocker family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexConfig {
    /// Keep the full-text rendering (sorted-neighbourhood sort keys).
    pub texts: bool,
    /// Build word-token postings (token blocking).
    pub tokens: bool,
    /// Build q-gram postings over the key attribute, for this `q`.
    pub qgrams: Option<usize>,
}

impl IndexConfig {
    /// No features at all (for blockers that ignore the index).
    pub fn none() -> Self {
        IndexConfig::default()
    }

    /// `true` when an index built with `self` satisfies `needed`.
    pub fn covers(&self, needed: &IndexConfig) -> bool {
        (!needed.texts || self.texts)
            && (!needed.tokens || self.tokens)
            && match needed.qgrams {
                None => true,
                Some(q) => self.qgrams == Some(q),
            }
    }
}

/// Interned per-record features plus flat inverted postings for one
/// relation. Postings are ascending record indices; per-record feature
/// lists hold each feature once (extraction dedups).
pub struct FeatureTable {
    /// Feature string → dense id, assigned first-seen in record order.
    ids: HashMap<String, u32>,
    /// Per-record feature-id ranges into `rec_feats` (len `n + 1`).
    rec_offsets: Vec<u32>,
    /// Flattened per-record feature ids.
    rec_feats: Vec<u32>,
    /// Per-feature posting ranges into `postings` (len `vocab + 1`).
    post_offsets: Vec<u32>,
    /// Flattened postings: ascending record indices per feature.
    postings: Vec<u32>,
}

impl FeatureTable {
    /// A table over zero records.
    fn empty() -> Self {
        FeatureTable {
            ids: HashMap::new(),
            rec_offsets: vec![0],
            rec_feats: Vec::new(),
            post_offsets: vec![0],
            postings: Vec::new(),
        }
    }

    /// Appends records' (sorted, deduped) feature strings. New features
    /// are interned after the existing ids in record order, so the table
    /// equals a fresh build over all records, ids included.
    fn extend(&mut self, per_record: Vec<Vec<String>>) {
        for feats in per_record {
            for f in feats {
                let next = self.ids.len() as u32;
                let id = *self.ids.entry(f).or_insert(next);
                self.rec_feats.push(id);
            }
            self.rec_offsets.push(self.rec_feats.len() as u32);
        }
        self.lay_postings();
    }

    /// Counting sort of (feature, record) into flat postings; records are
    /// visited in order, so every posting list ends up ascending.
    fn lay_postings(&mut self) {
        let vocab = self.ids.len();
        let mut post_offsets = vec![0u32; vocab + 1];
        for &id in &self.rec_feats {
            post_offsets[id as usize + 1] += 1;
        }
        for v in 0..vocab {
            post_offsets[v + 1] += post_offsets[v];
        }
        let mut cursor: Vec<u32> = post_offsets[..vocab].to_vec();
        let mut postings = vec![0u32; self.rec_feats.len()];
        for rec in 0..self.n_records() {
            for &id in self.record_features(rec) {
                postings[cursor[id as usize] as usize] = rec as u32;
                cursor[id as usize] += 1;
            }
        }
        self.post_offsets = post_offsets;
        self.postings = postings;
    }

    /// Number of records indexed.
    fn n_records(&self) -> usize {
        self.rec_offsets.len() - 1
    }

    /// Per-feature document frequency over the first `n` records.
    fn prefix_df(&self, n: usize) -> Vec<u32> {
        let mut df: Vec<u32> = self.post_offsets.windows(2).map(|w| w[1] - w[0]).collect();
        for &id in &self.rec_feats[self.rec_offsets[n] as usize..] {
            df[id as usize] -= 1;
        }
        df
    }

    /// Number of distinct features.
    pub fn vocab(&self) -> usize {
        self.ids.len()
    }

    /// Total posting entries (== total per-record feature occurrences).
    pub fn n_postings(&self) -> usize {
        self.postings.len()
    }

    /// Document frequency of feature `id` in this relation.
    #[inline]
    pub fn df(&self, id: u32) -> usize {
        (self.post_offsets[id as usize + 1] - self.post_offsets[id as usize]) as usize
    }

    /// Dense id of `feature`, if present.
    #[inline]
    pub fn lookup(&self, feature: &str) -> Option<u32> {
        self.ids.get(feature).copied()
    }

    /// Feature ids of record `i`.
    #[inline]
    fn record_features(&self, i: usize) -> &[u32] {
        &self.rec_feats[self.rec_offsets[i] as usize..self.rec_offsets[i + 1] as usize]
    }

    /// Ascending record indices containing feature `id`.
    #[inline]
    fn posting(&self, id: u32) -> &[u32] {
        &self.postings[self.post_offsets[id as usize] as usize
            ..self.post_offsets[id as usize + 1] as usize]
    }
}

/// A relation's blocking features, built once and probed many times.
pub struct RelationIndex {
    n: usize,
    texts: Option<Vec<String>>,
    tokens: Option<FeatureTable>,
    qgrams: Option<(usize, FeatureTable)>,
    config: IndexConfig,
}

impl RelationIndex {
    /// Builds the configured features, fanning extraction out over the
    /// shared threadpool budget in fixed chunks.
    pub fn build(records: &[Record], cfg: &IndexConfig) -> Self {
        let mut index = RelationIndex {
            n: 0,
            texts: cfg.texts.then(Vec::new),
            tokens: cfg.tokens.then(FeatureTable::empty),
            qgrams: cfg.qgrams.map(|q| (q, FeatureTable::empty())),
            config: *cfg,
        };
        index.extend(records);
        index
    }

    /// Indexes `records` as appended after the records already indexed.
    /// Only the new records are rendered, tokenized and q-grammed; the
    /// result equals [`RelationIndex::build`] over the concatenation,
    /// feature ids and postings included.
    pub fn extend(&mut self, records: &[Record]) {
        if records.is_empty() {
            // Nothing appended: the features and postings are unchanged,
            // so the postings are not re-laid.
            return;
        }
        let _span = em_obs::span!("block.index_build", records = records.len());
        let before = self.n_postings();
        let chunks: Vec<&[Record]> = records.chunks(EXTRACT_CHUNK).collect();
        if self.config.texts || self.config.tokens {
            let texts: Vec<String> =
                run_chunks(&chunks, |c| c.iter().map(record_text).collect::<Vec<_>>())
                    .expect("blocking text-render worker panicked")
                    .into_iter()
                    .flatten()
                    .collect();
            if let Some(table) = &mut self.tokens {
                let text_chunks: Vec<&[String]> = texts.chunks(EXTRACT_CHUNK).collect();
                let per_record: Vec<Vec<String>> = run_chunks(&text_chunks, |c| {
                    c.iter()
                        .map(|t| {
                            let mut w = em_text::words(t);
                            w.sort_unstable();
                            w.dedup();
                            w
                        })
                        .collect::<Vec<_>>()
                })
                .expect("blocking tokenize worker panicked")
                .into_iter()
                .flatten()
                .collect();
                table.extend(per_record);
            }
            if let Some(kept) = &mut self.texts {
                kept.extend(texts);
            }
        }
        if let Some((q, table)) = &mut self.qgrams {
            let q = *q;
            let per_record: Vec<Vec<String>> = run_chunks(&chunks, |c| {
                c.iter()
                    .map(|r| crate::qgram::key_grams(r, q))
                    .collect::<Vec<_>>()
            })
            .expect("blocking q-gram worker panicked")
            .into_iter()
            .flatten()
            .collect();
            table.extend(per_record);
        }
        em_obs::metrics::counter("block.postings").add((self.n_postings() - before) as u64);
        self.n += records.len();
    }

    /// Posting entries across the built feature tables.
    fn n_postings(&self) -> usize {
        self.tokens.as_ref().map_or(0, FeatureTable::n_postings)
            + self.qgrams.as_ref().map_or(0, |(_, t)| t.n_postings())
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the index covers zero records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Full-text sort keys (present when built with `texts`).
    pub fn texts(&self) -> Option<&[String]> {
        self.texts.as_deref()
    }

    /// Word-token features (present when built with `tokens`).
    pub fn tokens(&self) -> Option<&FeatureTable> {
        self.tokens.as_ref()
    }

    /// Q-gram features, if built with exactly this `q`.
    pub fn qgrams(&self, q: usize) -> Option<&FeatureTable> {
        match &self.qgrams {
            Some((built_q, table)) if *built_q == q => Some(table),
            _ => None,
        }
    }
}

/// Join marker: the left feature has no right counterpart.
const FEAT_NONE: u32 = u32::MAX;

/// Left feature id → right feature id ([`FEAT_NONE`] when absent) for one
/// pair of feature tables, covering their first `map.len()` /
/// `right_vocab` ids. Ids are append-only, so an entry changes only when
/// its counterpart is newly interned on the other side: the join is
/// extended as either table grows, never rebuilt.
#[derive(Debug, Clone, Default)]
struct FeatureJoin {
    map: Vec<u32>,
    right_vocab: usize,
}

impl FeatureJoin {
    /// Brings the join up to both tables' vocabularies, hashing only the
    /// features interned since the last update. Slot writes are
    /// independent, so the (unordered) HashMap iteration cannot affect the
    /// result.
    fn extend(&mut self, left: &FeatureTable, right: &FeatureTable) {
        let (old_left, old_right) = (self.map.len(), self.right_vocab);
        // New right ids, for the left ids already covered; new left ids
        // are resolved against every right id below.
        if old_left > 0 && right.vocab() > old_right {
            for (feat, &rid) in &right.ids {
                if rid as usize >= old_right {
                    if let Some(lid) = left.lookup(feat).filter(|&l| (l as usize) < old_left) {
                        self.map[lid as usize] = rid;
                    }
                }
            }
        }
        if left.vocab() > old_left {
            self.map.resize(left.vocab(), FEAT_NONE);
            for (feat, &lid) in &left.ids {
                if lid as usize >= old_left {
                    if let Some(rid) = right.lookup(feat) {
                        self.map[lid as usize] = rid;
                    }
                }
            }
        }
        self.right_vocab = right.vocab();
    }
}

/// Candidate pairs over two relations, plus what a later probe needs to
/// resume from them once the relations have grown by appends
/// ([`Blocker::candidates_grown`](crate::Blocker::candidates_grown)).
/// [`CandidateSet::default`] is the empty set over zero records: resuming
/// from it is a cold probe.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    pairs: Vec<CandidatePair>,
    left_len: usize,
    right_len: usize,
    /// Feature join of the overlap families (empty for the others).
    join: FeatureJoin,
}

impl CandidateSet {
    /// `pairs` over the first `left_len` × `right_len` records, with no
    /// further resume state.
    pub fn new(pairs: Vec<CandidatePair>, left_len: usize, right_len: usize) -> Self {
        CandidateSet {
            pairs,
            left_len,
            right_len,
            join: FeatureJoin::default(),
        }
    }

    /// The candidate pairs, sorted and deduplicated.
    pub fn pairs(&self) -> &[CandidatePair] {
        &self.pairs
    }

    /// The candidate pairs, by value.
    pub fn into_pairs(self) -> Vec<CandidatePair> {
        self.pairs
    }

    /// Left records the set was generated over.
    pub fn left_len(&self) -> usize {
        self.left_len
    }

    /// Right records the set was generated over.
    pub fn right_len(&self) -> usize {
        self.right_len
    }
}

/// Shared-feature candidate generation over two feature tables, resumed
/// from `prior`: the one engine behind both token and q-gram blocking.
///
/// Semantics are exactly the sequential reference's: document frequency
/// is counted over *both* relations, features past
/// `stop_threshold(n_left + n_right, max_frequency)` are cut before any
/// posting expansion, and a pair is a candidate when it shares at least
/// `min_shared` surviving features.
///
/// Resuming is exact because the relations only grew by appends: `prior`
/// covers the first `left_len` × `right_len` records, and those records'
/// features are unchanged. An old pair (both records old) therefore
/// shares the same features as before, so its count can change only
/// through a feature whose stop status flipped — the df and the
/// threshold both move with the appends. Old left rows holding a flipped
/// feature (one that both old sides held) are re-probed in full, as are
/// the appended left rows. Every other row is its old row, whose pairs
/// all lie below the old right length, followed by a probe over only the
/// posting suffixes past the old right length — so the output is sorted
/// by construction. A cold probe is the resume from the empty prefix,
/// where every left row is an appended one.
pub(crate) fn overlap_candidates(
    left: &FeatureTable,
    right: &FeatureTable,
    min_shared: usize,
    max_frequency: f64,
    prior: &CandidateSet,
) -> CandidateSet {
    let (n_left, n_right) = (left.n_records(), right.n_records());
    let (old_left, old_right) = (prior.left_len, prior.right_len);
    assert!(
        old_left <= n_left && old_right <= n_right,
        "prior covers {old_left}×{old_right} records, the indexes {n_left}×{n_right}"
    );
    let _span = em_obs::span!("block.probe", left = n_left, right = n_right);
    let max_df = stop_threshold(n_left + n_right, max_frequency);
    let mut join = prior.join.clone();
    join.extend(left, right);

    // Document frequencies over the old prefixes: the stop status the
    // prior was probed under, and where each right posting's suffix of
    // appended records starts. A cold probe needs neither.
    let resume = old_left > 0;
    let (left_df_old, right_df_old) = if resume {
        (left.prefix_df(old_left), right.prefix_df(old_right))
    } else {
        (Vec::new(), Vec::new())
    };
    let old_max_df = stop_threshold(old_left + old_right, max_frequency);

    // Resolve every left feature to the postings of its surviving right
    // counterpart once — `(start, suffix start, end)` into
    // `right.postings`, empty when cut or absent on the right — so the
    // banded loop below is pure integer work, and collect the features
    // whose stop status flipped.
    let mut spans = vec![(0u32, 0u32, 0u32); left.vocab()];
    let mut stopped = 0u64;
    let mut flipped: Vec<u32> = Vec::new();
    for (lid, &rid) in join.map.iter().enumerate() {
        let left_df = left.df(lid as u32);
        if rid == FEAT_NONE {
            // Left-only features past the cut produce no candidates either
            // way; counted for the stop-token telemetry only.
            stopped += u64::from(left_df > max_df);
            continue;
        }
        let cut = left_df + right.df(rid) > max_df;
        if cut {
            stopped += 1;
        } else {
            let (start, end) = (
                right.post_offsets[rid as usize],
                right.post_offsets[rid as usize + 1],
            );
            let suffix = if resume {
                start + right_df_old[rid as usize]
            } else {
                start
            };
            spans[lid] = (start, suffix, end);
        }
        if resume {
            let (l_old, r_old) = (
                left_df_old[lid] as usize,
                right_df_old[rid as usize] as usize,
            );
            if l_old > 0 && r_old > 0 && (l_old + r_old > old_max_df) != cut {
                flipped.push(lid as u32);
            }
        }
    }
    let mut reprobe = vec![false; old_left];
    for &lid in &flipped {
        for &i in left
            .posting(lid)
            .iter()
            .take_while(|&&i| (i as usize) < old_left)
        {
            reprobe[i as usize] = true;
        }
    }
    let rows_reprobed = reprobe.iter().filter(|&&r| r).count();

    // Banded probe: fixed-width left bands, dense per-band accumulators,
    // outputs concatenated in band order (run_chunks preserves item
    // order) — sorted by construction, bitwise-stable across thread
    // counts.
    let old_pairs = &prior.pairs[..];
    let bands: Vec<(usize, usize)> = (0..n_left)
        .step_by(PROBE_BAND)
        .map(|s| (s, (s + PROBE_BAND).min(n_left)))
        .collect();
    let per_band: Vec<(Vec<CandidatePair>, u64)> = run_chunks(&bands, |&(start, end)| {
        let mut counts = vec![0u32; n_right];
        let mut touched: Vec<u32> = Vec::new();
        let mut out: Vec<CandidatePair> = Vec::new();
        let mut raw = 0u64;
        let mut old = old_pairs.partition_point(|p| p.0 < start);
        for i in start..end {
            let row = old;
            while old < old_pairs.len() && old_pairs[old].0 == i {
                old += 1;
            }
            let full = i >= old_left || reprobe[i];
            if !full {
                out.extend_from_slice(&old_pairs[row..old]);
            }
            for &lf in left.record_features(i) {
                let (all, appended, to) = spans[lf as usize];
                let from = if full { all } else { appended };
                for &j in &right.postings[from as usize..to as usize] {
                    if counts[j as usize] == 0 {
                        touched.push(j);
                    }
                    counts[j as usize] += 1;
                }
            }
            raw += touched.len() as u64;
            touched.sort_unstable();
            for &j in &touched {
                if counts[j as usize] as usize >= min_shared {
                    out.push((i, j as usize));
                }
                counts[j as usize] = 0;
            }
            touched.clear();
        }
        (out, raw)
    })
    .expect("blocking probe worker panicked");

    let mut raw_total = 0u64;
    let mut pairs = Vec::with_capacity(per_band.iter().map(|(v, _)| v.len()).sum());
    for (band, raw) in per_band {
        pairs.extend(band);
        raw_total += raw;
    }
    em_obs::metrics::counter("block.stopped_tokens").add(stopped);
    em_obs::metrics::counter("block.stop_flips").add(flipped.len() as u64);
    em_obs::metrics::counter("block.rows_reprobed").add(rows_reprobed as u64);
    em_obs::metrics::counter("block.candidates_raw").add(raw_total);
    em_obs::metrics::counter("block.probes").inc();
    CandidateSet {
        pairs,
        left_len: n_left,
        right_len: n_right,
        join,
    }
}

/// Sorted-neighbourhood candidate generation over two text indexes: merge
/// the pre-rendered sort keys, interleave equal-key runs, then sweep the
/// window in fixed position bands fanned out over the threadpool.
pub(crate) fn sorted_candidates(
    window: usize,
    left: &RelationIndex,
    right: &RelationIndex,
) -> Vec<CandidatePair> {
    let lt = left.texts().expect("left index built without texts");
    let rt = right.texts().expect("right index built without texts");
    let _span = em_obs::span!("block.probe", left = lt.len(), right = rt.len());

    // (sort key, relation, index); `&str` orders exactly like `String`.
    let mut entries: Vec<(&str, bool, usize)> = Vec::with_capacity(lt.len() + rt.len());
    for (i, t) in lt.iter().enumerate() {
        entries.push((t.as_str(), false, i));
    }
    for (j, t) in rt.iter().enumerate() {
        entries.push((t.as_str(), true, j));
    }
    entries.sort();
    // Interleave mixed equal-key runs L,R,L,R,… (the PR 7 duplicate fix),
    // preserving relative idx order inside each relation.
    let mut run_start = 0;
    while run_start < entries.len() {
        let mut run_end = run_start + 1;
        while run_end < entries.len() && entries[run_end].0 == entries[run_start].0 {
            run_end += 1;
        }
        let run = &mut entries[run_start..run_end];
        let split = run.iter().position(|e| e.1).unwrap_or(run.len());
        if run.len() > 2 && split > 0 && split < run.len() {
            let lefts: Vec<_> = run[..split].to_vec();
            let rights: Vec<_> = run[split..].to_vec();
            let (mut li, mut ri) = (0, 0);
            for slot in run.iter_mut() {
                let take_left = if li < lefts.len() && ri < rights.len() {
                    li <= ri
                } else {
                    li < lefts.len()
                };
                if take_left {
                    *slot = lefts[li];
                    li += 1;
                } else {
                    *slot = rights[ri];
                    ri += 1;
                }
            }
        }
        run_start = run_end;
    }

    // Fixed position bands; each position's window may read past the band
    // end (read-only), so banding partitions the emitted pairs exactly.
    let bands: Vec<(usize, usize)> = (0..entries.len())
        .step_by(PROBE_BAND)
        .map(|s| (s, (s + PROBE_BAND).min(entries.len())))
        .collect();
    let per_band: Vec<Vec<CandidatePair>> = run_chunks(&bands, |&(start, end)| {
        let mut out = Vec::new();
        for pos in start..end {
            let (_, is_right, idx) = entries[pos];
            let wend = (pos + window).min(entries.len());
            for &(_, other_right, other_idx) in &entries[pos + 1..wend] {
                match (is_right, other_right) {
                    (false, true) => out.push((idx, other_idx)),
                    (true, false) => out.push((other_idx, idx)),
                    _ => {} // same relation: not a candidate
                }
            }
        }
        out
    })
    .expect("sorted-neighbourhood probe worker panicked");

    let merged: Vec<CandidatePair> = per_band.into_iter().flatten().collect();
    em_obs::metrics::counter("block.candidates_raw").add(merged.len() as u64);
    em_obs::metrics::counter("block.probes").inc();
    // Windows overlap band boundaries unordered; normalize like the
    // sequential path (which sorts + dedups its raw pair list too).
    crate::normalize(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::AttrValue;

    fn rec(id: u64, text: &str) -> Record {
        Record::new(id, vec![AttrValue::from(text)])
    }

    #[test]
    fn feature_table_postings_are_ascending_and_complete() {
        let mut t = FeatureTable::empty();
        t.extend(vec![
            vec!["b".into(), "c".into()],
            vec!["a".into(), "b".into()],
            vec!["b".into()],
        ]);
        assert_eq!(t.vocab(), 3);
        let b = t.lookup("b").unwrap();
        assert_eq!(t.posting(b), &[0, 1, 2]);
        assert_eq!(t.df(b), 3);
        let a = t.lookup("a").unwrap();
        assert_eq!(t.posting(a), &[1]);
        assert_eq!(t.n_postings(), 5);
        assert_eq!(t.record_features(1).len(), 2);
    }

    #[test]
    fn config_covers_is_componentwise() {
        let full = IndexConfig {
            texts: true,
            tokens: true,
            qgrams: Some(3),
        };
        assert!(full.covers(&IndexConfig::none()));
        assert!(full.covers(&IndexConfig {
            tokens: true,
            ..IndexConfig::none()
        }));
        assert!(!full.covers(&IndexConfig {
            qgrams: Some(2),
            ..IndexConfig::none()
        }));
        assert!(!IndexConfig::none().covers(&full));
    }

    #[test]
    fn build_respects_configuration() {
        let records = vec![rec(0, "sony tv"), rec(1, "canon camera")];
        let ix = RelationIndex::build(
            &records,
            &IndexConfig {
                texts: true,
                tokens: true,
                qgrams: Some(3),
            },
        );
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.texts().unwrap()[0], "sony tv");
        assert!(ix.tokens().is_some());
        assert!(ix.qgrams(3).is_some());
        assert!(ix.qgrams(2).is_none(), "q mismatch must not alias");

        let bare = RelationIndex::build(&records, &IndexConfig::none());
        assert!(bare.texts().is_none());
        assert!(bare.tokens().is_none());
    }

    #[test]
    fn empty_relation_builds_an_empty_index() {
        let ix = RelationIndex::build(
            &[],
            &IndexConfig {
                texts: true,
                tokens: true,
                qgrams: Some(3),
            },
        );
        assert!(ix.is_empty());
        assert_eq!(ix.tokens().unwrap().vocab(), 0);
    }

    #[test]
    fn extension_equals_a_fresh_build() {
        let records = vec![
            rec(0, "sony tv"),
            rec(1, "canon camera"),
            rec(2, "sony camera bag"),
            rec(3, "nikon lens"),
            rec(4, "canon lens cap"),
        ];
        let cfg = IndexConfig {
            texts: true,
            tokens: true,
            qgrams: Some(3),
        };
        let fresh = RelationIndex::build(&records, &cfg);
        for split in 0..=records.len() {
            let mid = (split + records.len()) / 2;
            let mut grown = RelationIndex::build(&records[..split], &cfg);
            grown.extend(&records[split..mid]);
            grown.extend(&records[mid..]);
            assert_eq!(grown.len(), fresh.len());
            assert_eq!(grown.texts(), fresh.texts());
            for (a, b) in [
                (grown.tokens().unwrap(), fresh.tokens().unwrap()),
                (grown.qgrams(3).unwrap(), fresh.qgrams(3).unwrap()),
            ] {
                assert_eq!(a.ids, b.ids, "ids interned in record order");
                assert_eq!(a.rec_offsets, b.rec_offsets);
                assert_eq!(a.rec_feats, b.rec_feats);
                assert_eq!(a.post_offsets, b.post_offsets);
                assert_eq!(a.postings, b.postings);
            }
        }
    }
}
