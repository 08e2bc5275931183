//! Shared-prefix cache for batched zoo scoring.
//!
//! Every pair scored in one sweep shares the same demonstration set, so
//! the prompt `[CLS] (demoL [SEP] demoR [SEP] YES|NO [SEP])* queryL [SEP]
//! queryR [SEP]` is byte-identical up to the query. The seed path
//! re-tokenized and re-encoded that prefix for every pair;
//! [`PrefixCache`] does it once per sweep:
//!
//! * demonstration sides are tokenized and truncated once at
//!   construction;
//! * each *variant* of the prefix (demonstrations are dropped from the
//!   front when a long query overflows the budget, so different queries
//!   can see different prefixes) renders its token stream once, lazily;
//! * each variant's [`PrefixState`] — embedded rows plus the block-0
//!   per-row projections — is encoded by the model once, lazily.
//!
//! The token streams produced here are **identical** to
//! [`encode_prompt`](crate::prompt::encode_prompt): prefix tokens ++
//! suffix tokens ++ padding reproduces its output exactly
//! (`tests/prefix_equivalence.rs` asserts it), and the stitched forward
//! pass is bitwise-identical to the full recompute because trailing
//! padding is inert and every reused quantity is per-row (see
//! [`EncoderClassifier::encode_prefix`]).

use crate::model::{Batch, EncoderClassifier, PrefixState};
use crate::prompt::{Demonstration, PromptBudget};
use crate::tokenizer::{overlap, overlap_flags, segment, special, Encoded, HashTokenizer};
use em_core::SerializedPair;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One rendered prefix variant: `[CLS]` plus the demonstrations that
/// survive after dropping the oldest `drop`.
#[derive(Debug)]
pub struct PrefixVariant {
    /// Number of demonstrations dropped from the front.
    pub drop: usize,
    /// Prefix token ids (`[CLS]` + rendered demonstrations, no padding).
    pub ids: Vec<u32>,
    /// Segment ids aligned with `ids`.
    pub segments: Vec<u32>,
    /// Overlap flags aligned with `ids`.
    pub overlap: Vec<u32>,
    state: OnceLock<PrefixState>,
}

impl PrefixVariant {
    /// Prefix length in tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when only `[CLS]` remains (all demonstrations dropped or
    /// none supplied) — never truly empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The model-encoded prefix, computed on first use. The boolean is
    /// `true` unless this call ran the encode (feeds `lm.prefix_hits`):
    /// of any number of callers racing on first use, exactly one sees a
    /// miss, so the hit counters do not depend on scheduling.
    pub fn state(&self, model: &EncoderClassifier) -> (&PrefixState, bool) {
        let mut encoded = false;
        let state = self.state.get_or_init(|| {
            encoded = true;
            model.encode_prefix(&self.ids, &self.segments, &self.overlap)
        });
        (state, !encoded)
    }
}

/// Per-(demo-set, budget) prompt prefix cache. Shared read-only across
/// scoring workers; variant creation is guarded by an internal mutex and
/// model encoding by per-variant [`OnceLock`]s.
#[derive(Debug)]
pub struct PrefixCache {
    budget: PromptBudget,
    /// Tokenized, truncated demonstration sides (the once-per-sweep work).
    demo_tokens: Vec<(Vec<u32>, Vec<u32>, bool)>,
    /// `tail_costs[d]` = positions the demonstrations `d..` occupy
    /// (`len_l + len_r + 4` each); `tail_costs[len]` = 0.
    tail_costs: Vec<usize>,
    variants: Mutex<HashMap<usize, Arc<PrefixVariant>>>,
}

impl PrefixCache {
    /// Tokenizes the demonstration set once under `budget`.
    pub fn new(tok: &HashTokenizer, demos: &[Demonstration], budget: PromptBudget) -> Self {
        assert!(budget.max_seq >= 8, "sequence budget too small");
        let demo_tokens: Vec<(Vec<u32>, Vec<u32>, bool)> = demos
            .iter()
            .map(|d| {
                let mut l = tok.encode_text(&d.pair.left);
                l.truncate(budget.demo_side);
                let mut r = tok.encode_text(&d.pair.right);
                r.truncate(budget.demo_side);
                (l, r, d.label)
            })
            .collect();
        let mut tail_costs = vec![0usize; demo_tokens.len() + 1];
        for d in (0..demo_tokens.len()).rev() {
            tail_costs[d] = tail_costs[d + 1] + demo_tokens[d].0.len() + demo_tokens[d].1.len() + 4;
        }
        PrefixCache {
            budget,
            demo_tokens,
            tail_costs,
            variants: Mutex::new(HashMap::new()),
        }
    }

    /// Tokenizes and trims one query exactly as
    /// [`encode_prompt`](crate::prompt::encode_prompt) does, returning the
    /// drop count its prefix variant needs and the unpadded suffix
    /// (`queryL [SEP] queryR [SEP]`, every position real).
    pub fn encode_suffix(&self, tok: &HashTokenizer, query: &SerializedPair) -> (usize, Encoded) {
        let mut q_left = tok.encode_text(&query.left);
        q_left.truncate(self.budget.query_side);
        let mut q_right = tok.encode_text(&query.right);
        q_right.truncate(self.budget.query_side);
        while q_left.len() + q_right.len() + 3 > self.budget.max_seq {
            if q_left.len() >= q_right.len() {
                q_left.pop();
            } else {
                q_right.pop();
            }
        }
        let query_cost = q_left.len() + q_right.len() + 2;
        let drop = self.drop_for(query_cost);

        let mut ids = Vec::with_capacity(query_cost);
        let mut segments = Vec::with_capacity(query_cost);
        let mut flags = Vec::with_capacity(query_cost);
        let (qlf, qrf) = overlap_flags(&q_left, &q_right);
        for (&t, &f) in q_left.iter().zip(&qlf) {
            ids.push(t);
            segments.push(segment::LEFT);
            flags.push(f);
        }
        ids.push(special::SEP);
        segments.push(segment::SPECIAL);
        flags.push(overlap::NA);
        for (&t, &f) in q_right.iter().zip(&qrf) {
            ids.push(t);
            segments.push(segment::RIGHT);
            flags.push(f);
        }
        ids.push(special::SEP);
        segments.push(segment::SPECIAL);
        flags.push(overlap::NA);
        let mask = vec![true; ids.len()];
        (
            drop,
            Encoded {
                ids,
                segments,
                mask,
                overlap: flags,
            },
        )
    }

    /// Smallest drop count whose surviving demonstrations fit beside a
    /// query of `query_cost` positions: equivalent to `encode_prompt`'s
    /// drop-from-the-front loop (the tail cost shrinks monotonically, and
    /// the query trim guarantees a fit once everything is dropped).
    fn drop_for(&self, query_cost: usize) -> usize {
        (0..=self.demo_tokens.len())
            .find(|&d| 1 + self.tail_costs[d] + query_cost <= self.budget.max_seq)
            .expect("trimmed query always fits with every demonstration dropped")
    }

    /// Prefix length (in tokens) of the variant for `drop`, without
    /// rendering it: `[CLS]` + surviving demonstration positions.
    pub fn variant_len(&self, drop: usize) -> usize {
        1 + self.tail_costs[drop]
    }

    /// The rendered prefix variant for `drop`, building it on first use.
    pub fn variant(&self, drop: usize) -> Arc<PrefixVariant> {
        if let Some(v) = self.variants.lock().unwrap().get(&drop) {
            return v.clone();
        }
        let built = Arc::new(self.render_variant(drop));
        self.variants
            .lock()
            .unwrap()
            .entry(drop)
            .or_insert(built)
            .clone()
    }

    /// Renders `[CLS] (demoL [SEP] demoR [SEP] YES|NO [SEP])*` for the
    /// demonstrations surviving `drop` — the exact front half of
    /// `encode_prompt`'s token stream.
    fn render_variant(&self, drop: usize) -> PrefixVariant {
        let len = self.variant_len(drop);
        let mut ids: Vec<u32> = Vec::with_capacity(len);
        let mut segments: Vec<u32> = Vec::with_capacity(len);
        let mut flags: Vec<u32> = Vec::with_capacity(len);
        ids.push(special::CLS);
        segments.push(segment::SPECIAL);
        flags.push(overlap::NA);
        for (l, r, label) in &self.demo_tokens[drop..] {
            let (lf, rf) = overlap_flags(l, r);
            for (&t, &f) in l.iter().zip(&lf) {
                ids.push(t);
                segments.push(segment::DEMO);
                flags.push(f);
            }
            ids.push(special::SEP);
            segments.push(segment::SPECIAL);
            flags.push(overlap::NA);
            for (&t, &f) in r.iter().zip(&rf) {
                ids.push(t);
                segments.push(segment::DEMO);
                flags.push(f);
            }
            ids.push(special::SEP);
            segments.push(segment::SPECIAL);
            flags.push(overlap::NA);
            ids.push(if *label { special::YES } else { special::NO });
            segments.push(segment::DEMO);
            flags.push(overlap::NA);
            ids.push(special::SEP);
            segments.push(segment::SPECIAL);
            flags.push(overlap::NA);
        }
        debug_assert_eq!(ids.len(), len, "variant length bookkeeping diverged");
        PrefixVariant {
            drop,
            ids,
            segments,
            overlap: flags,
            state: OnceLock::new(),
        }
    }

    /// Real prompt tokens one request for `query` sends — prefix length
    /// arithmetic plus one O(suffix) query tokenization, never a full
    /// prompt re-encode.
    pub fn prompt_token_count(&self, tok: &HashTokenizer, query: &SerializedPair) -> usize {
        let (drop, suffix) = self.encode_suffix(tok, query);
        self.variant_len(drop) + suffix.len()
    }
}

/// Collates unpadded suffixes of one variant group, padded to the group's
/// longest suffix. Shorter rows get the same `PAD`/`SPECIAL`/`NA`/masked
/// filler as full-prompt padding, so the stitched forward treats them
/// exactly as `encode_prompt`'s trailing padding.
pub fn collate_suffixes(suffixes: &[&Encoded]) -> Batch {
    assert!(!suffixes.is_empty(), "cannot collate an empty group");
    let seq = suffixes.iter().map(|e| e.len()).max().unwrap().max(1);
    let n = suffixes.len();
    let mut ids = Vec::with_capacity(n * seq);
    let mut segments = Vec::with_capacity(n * seq);
    let mut mask = Vec::with_capacity(n * seq);
    let mut ovl = Vec::with_capacity(n * seq);
    for e in suffixes {
        ids.extend_from_slice(&e.ids);
        segments.extend_from_slice(&e.segments);
        mask.extend_from_slice(&e.mask);
        ovl.extend_from_slice(&e.overlap);
        for _ in e.len()..seq {
            ids.push(special::PAD);
            segments.push(segment::SPECIAL);
            mask.push(false);
            ovl.push(overlap::NA);
        }
    }
    Batch {
        ids,
        segments,
        mask,
        overlap: ovl,
        n,
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::encode_prompt;

    fn sp(l: &str, r: &str) -> SerializedPair {
        SerializedPair {
            left: l.into(),
            right: r.into(),
        }
    }

    fn demo(l: &str, r: &str, label: bool) -> Demonstration {
        Demonstration {
            pair: sp(l, r),
            label,
        }
    }

    /// prefix tokens ++ suffix tokens ++ padding must equal
    /// `encode_prompt` exactly, including when long queries force
    /// demonstration drops.
    #[test]
    fn prefix_plus_suffix_reproduces_encode_prompt() {
        let tok = HashTokenizer::new(1024);
        let demos = vec![
            demo("alpha beta gamma", "alpha beta", true),
            demo("delta", "epsilon zeta eta", false),
            demo("theta iota", "theta iota", true),
        ];
        let budget = PromptBudget {
            max_seq: 48,
            demo_side: 5,
            query_side: 10,
        };
        let cache = PrefixCache::new(&tok, &demos, budget);
        for query in [
            sp("one two", "one three"),
            sp("a much longer query with many tokens here", "and a long right side too yes"),
            sp("", ""),
        ] {
            let oracle = encode_prompt(&tok, &query, &demos, budget);
            let (drop, suffix) = cache.encode_suffix(&tok, &query);
            let variant = cache.variant(drop);
            assert_eq!(variant.len(), cache.variant_len(drop));
            let used = variant.len() + suffix.len();
            assert_eq!(used, cache.prompt_token_count(&tok, &query));
            assert_eq!(used, oracle.token_count(), "query {:?}", query.left);

            let mut ids = variant.ids.clone();
            ids.extend_from_slice(&suffix.ids);
            ids.resize(budget.max_seq, special::PAD);
            assert_eq!(ids, oracle.ids);
            let mut segs = variant.segments.clone();
            segs.extend_from_slice(&suffix.segments);
            segs.resize(budget.max_seq, segment::SPECIAL);
            assert_eq!(segs, oracle.segments);
            let mut ovl = variant.overlap.clone();
            ovl.extend_from_slice(&suffix.overlap);
            ovl.resize(budget.max_seq, overlap::NA);
            assert_eq!(ovl, oracle.overlap);
            let mut mask = vec![true; used];
            mask.resize(budget.max_seq, false);
            assert_eq!(mask, oracle.mask);
        }
    }

    #[test]
    fn variants_are_cached_per_drop() {
        let tok = HashTokenizer::new(1024);
        let demos = vec![demo("a b c d e", "a b c d e", true); 4];
        let budget = PromptBudget {
            max_seq: 32,
            demo_side: 5,
            query_side: 10,
        };
        let cache = PrefixCache::new(&tok, &demos, budget);
        let short = cache.encode_suffix(&tok, &sp("x", "y")).0;
        let long = cache
            .encode_suffix(
                &tok,
                &sp(
                    "one two three four five six seven eight nine ten",
                    "one two three four five six seven eight nine ten",
                ),
            )
            .0;
        assert!(long > short, "longer queries must drop more demos");
        assert!(Arc::ptr_eq(&cache.variant(short), &cache.variant(short)));
        assert!(!Arc::ptr_eq(&cache.variant(short), &cache.variant(long)));
    }

    #[test]
    fn racing_first_use_reports_exactly_one_miss() {
        let tok = HashTokenizer::new(512);
        let model = EncoderClassifier::new(
            crate::ModelConfig {
                vocab: 512,
                d_model: 16,
                n_layers: 1,
                n_heads: 2,
                ff_mult: 2,
                max_seq: 32,
                dropout: 0.0,
                claimed_params_millions: 0.1,
            },
            1,
        );
        let demos = vec![demo("alpha beta", "alpha beta", true)];
        let budget = PromptBudget {
            max_seq: 32,
            demo_side: 5,
            query_side: 10,
        };
        let variant = PrefixCache::new(&tok, &demos, budget).variant(0);
        let threads = 8;
        let start = std::sync::Barrier::new(threads);
        let misses = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    if !variant.state(&model).1 {
                        misses.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(misses.into_inner(), 1, "only the encoding caller misses");
        assert!(variant.state(&model).1, "later callers hit");
    }

    #[test]
    fn zero_demos_prefix_is_cls_only() {
        let tok = HashTokenizer::new(1024);
        let cache = PrefixCache::new(&tok, &[], PromptBudget::default());
        let (drop, _) = cache.encode_suffix(&tok, &sp("a", "b"));
        assert_eq!(drop, 0);
        let v = cache.variant(drop);
        assert_eq!(v.ids, vec![special::CLS]);
    }

    #[test]
    fn collate_pads_to_group_max() {
        let tok = HashTokenizer::new(1024);
        let cache = PrefixCache::new(&tok, &[], PromptBudget::default());
        let (_, a) = cache.encode_suffix(&tok, &sp("one", "two"));
        let (_, b) = cache.encode_suffix(&tok, &sp("one two three", "four five"));
        let batch = collate_suffixes(&[&a, &b]);
        assert_eq!(batch.n, 2);
        assert_eq!(batch.seq, b.len());
        assert!(batch.mask[..a.len()].iter().all(|&m| m));
        assert!(batch.mask[a.len()..batch.seq].iter().all(|&m| !m));
    }
}
