//! Blocking-equivalence suite: the indexed, banded-parallel candidate
//! generation must be **bitwise identical** to the sequential reference
//! implementations in [`em_blocking::reference`] for every family, every
//! relation shape, and every thread count — a prebuilt index reused
//! across runs (including after the other side changed) must answer
//! exactly like a fresh build, and so must indexes grown by appends with
//! the probe resumed from the previous candidates.
//!
//! This lives in its own integration binary because the thread-count
//! parity tests mutate the process-global worker budget via
//! [`em_nn::threadpool::set_max_threads`]; tests that do so serialize on
//! [`THREAD_CAP`].

use em_blocking::{
    reference, Blocker, CandidatePair, CandidateSet, QGramBlocker, RelationIndex,
    SortedNeighbourhood, TokenBlocker,
};
use em_core::{AttrValue, Record};
use em_nn::threadpool;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes every test that overrides the global thread cap.
static THREAD_CAP: Mutex<()> = Mutex::new(());

/// Thread caps the parity tests sweep: inline, two workers, oversubscribed.
const THREAD_CAPS: [usize; 3] = [1, 2, 8];

/// One blocker family with its pre-index sequential oracle.
struct Family {
    name: &'static str,
    blocker: Box<dyn Blocker>,
    oracle: Box<dyn Fn(&[Record], &[Record]) -> Vec<CandidatePair>>,
}

fn families() -> Vec<Family> {
    fn fam(
        name: &'static str,
        blocker: Box<dyn Blocker>,
        oracle: impl Fn(&[Record], &[Record]) -> Vec<CandidatePair> + 'static,
    ) -> Family {
        Family {
            name,
            blocker,
            oracle: Box::new(oracle),
        }
    }
    let token_default = TokenBlocker::default();
    let token_serving = TokenBlocker {
        min_shared: 2,
        max_token_frequency: 0.05,
    };
    let token_uncut = TokenBlocker {
        min_shared: 1,
        max_token_frequency: 1.0,
    };
    let qgram_default = QGramBlocker::default();
    let qgram_loose = QGramBlocker {
        q: 2,
        min_shared: 1,
        max_gram_frequency: 1.0,
    };
    let sn_small = SortedNeighbourhood { window: 2 };
    let sn_wide = SortedNeighbourhood { window: 10 };
    vec![
        fam("token-default", Box::new(token_default), move |l, r| {
            reference::token_candidates(&token_default, l, r)
        }),
        fam("token-serving", Box::new(token_serving), move |l, r| {
            reference::token_candidates(&token_serving, l, r)
        }),
        fam("token-uncut", Box::new(token_uncut), move |l, r| {
            reference::token_candidates(&token_uncut, l, r)
        }),
        fam("qgram-default", Box::new(qgram_default), move |l, r| {
            reference::qgram_candidates(&qgram_default, l, r)
        }),
        fam("qgram-loose", Box::new(qgram_loose), move |l, r| {
            reference::qgram_candidates(&qgram_loose, l, r)
        }),
        fam("sorted-w2", Box::new(sn_small), move |l, r| {
            reference::sorted_candidates(&sn_small, l, r)
        }),
        fam("sorted-w10", Box::new(sn_wide), move |l, r| {
            reference::sorted_candidates(&sn_wide, l, r)
        }),
    ]
}

/// Runs `f` under each swept thread cap, restoring the default after.
fn at_each_cap(mut f: impl FnMut(usize)) {
    let _g = THREAD_CAP.lock().unwrap();
    for cap in THREAD_CAPS {
        threadpool::set_max_threads(Some(cap));
        f(cap);
    }
    threadpool::set_max_threads(None);
}

/// Grows two indexes through `sizes` — non-decreasing `(left, right)`
/// prefix lengths of `left`/`right` — resuming the probe at every step
/// from the previous step's set (the first step resumes from the empty
/// set, i.e. probes cold). Every step must equal `candidates_indexed` on
/// freshly built indexes and the sequential oracle. Returns each step's
/// candidates.
fn grow_and_check(
    family: &Family,
    left: &[Record],
    right: &[Record],
    sizes: &[(usize, usize)],
) -> Result<Vec<Vec<CandidatePair>>, String> {
    let cfg = family.blocker.required_features();
    let mut left_index = RelationIndex::build(&[], &cfg);
    let mut right_index = RelationIndex::build(&[], &cfg);
    let mut set = CandidateSet::default();
    let mut steps = Vec::with_capacity(sizes.len());
    for &(nl, nr) in sizes {
        left_index.extend(&left[left_index.len()..nl]);
        right_index.extend(&right[right_index.len()..nr]);
        set = family
            .blocker
            .candidates_grown(&left_index, &right_index, &set)
            .ok_or_else(|| format!("{} cannot resume", family.name))?;
        let fresh = family.blocker.candidates_indexed(
            &RelationIndex::build(&left[..nl], &cfg),
            &RelationIndex::build(&right[..nr], &cfg),
        );
        if set.pairs() != fresh {
            return Err(format!(
                "{} at {nl}×{nr}: resumed {:?} vs fresh {:?}",
                family.name,
                set.pairs(),
                fresh
            ));
        }
        let oracle = (family.oracle)(&left[..nl], &right[..nr]);
        if fresh != oracle {
            return Err(format!(
                "{} at {nl}×{nr}: diverged from reference",
                family.name
            ));
        }
        if (set.left_len(), set.right_len()) != (nl, nr) {
            return Err(format!("{}: set does not record its extent", family.name));
        }
        steps.push(fresh);
    }
    Ok(steps)
}

proptest! {
    /// Indexed candidates equal the sequential oracle exactly — same
    /// pairs, same order — for every family at 1, 2, and 8 threads.
    #[test]
    fn indexed_path_matches_reference_at_every_thread_count(
        seed in 0u64..10,
        n_left in 0usize..60,
        n_right in 0usize..60,
        tenths in 0usize..=10,
    ) {
        let rels = em_datagen::serve_relations(n_left, n_right, tenths as f64 / 10.0, seed);
        for family in families() {
            let expect = (family.oracle)(&rels.left, &rels.right);
            let mut failure: Option<String> = None;
            at_each_cap(|cap| {
                let got = family.blocker.candidates(&rels.left, &rels.right);
                if got != expect && failure.is_none() {
                    failure = Some(format!(
                        "{} at {} threads: {} candidates vs {} reference",
                        family.name, cap, got.len(), expect.len()
                    ));
                }
            });
            prop_assert!(failure.is_none(), "{}", failure.unwrap());
        }
    }

    /// A relation index built once answers identically when reused against
    /// a *different* other side — the pipeline's reuse-after-append path.
    /// Document frequencies live per relation and combine at probe time,
    /// so a stale side's index stays exact.
    #[test]
    fn prebuilt_index_reused_after_other_side_grows(
        seed in 0u64..8,
        n in 4usize..40,
        extra in 1usize..12,
    ) {
        let rels = em_datagen::serve_relations(n, n + extra, 0.4, seed);
        let (right_before, right_grown) = (&rels.right[..n], &rels.right[..]);
        for family in families() {
            let cfg = family.blocker.required_features();
            let left_index = RelationIndex::build(&rels.left, &cfg);

            for right in [right_before, right_grown] {
                let fresh_left = RelationIndex::build(&rels.left, &cfg);
                let right_index = RelationIndex::build(right, &cfg);
                let reused = family.blocker.candidates_indexed(&left_index, &right_index);
                let fresh = family.blocker.candidates_indexed(&fresh_left, &right_index);
                prop_assert_eq!(
                    &reused, &fresh,
                    "{}: reused left index diverged at |right|={}", family.name, right.len()
                );
                let oracle = (family.oracle)(&rels.left, right);
                prop_assert_eq!(
                    &reused, &oracle,
                    "{}: indexed path diverged from reference at |right|={}",
                    family.name, right.len()
                );
            }
        }
    }
}

proptest! {
    /// Random sequences of appends to either side (or both, or neither):
    /// every overlap family's resumed probe equals a fresh build and the
    /// oracle after every append, at 1, 2 and 8 threads. Small relations
    /// move the stop threshold on almost every append, so stop-status
    /// flips occur too (dropping the flip re-probe fails this property).
    #[test]
    fn appends_resume_to_the_cold_candidates_at_every_thread_count(
        seed in 0u64..10,
        left0 in 0usize..30,
        right0 in 0usize..30,
        codes in proptest::collection::vec(0usize..36, 5),
        tenths in 0usize..=10,
    ) {
        // Step code: side = code % 3 (left, right, both), records = code / 3.
        let mut sizes = vec![(left0, right0)];
        for code in &codes {
            let (nl, nr) = *sizes.last().unwrap();
            let k = code / 3;
            sizes.push(match code % 3 {
                0 => (nl + k, nr),
                1 => (nl, nr + k),
                _ => (nl + k, nr + k),
            });
        }
        let (total_left, total_right) = *sizes.last().unwrap();
        let rels = em_datagen::serve_relations(
            total_left,
            total_right,
            tenths as f64 / 10.0,
            seed,
        );
        for family in families().iter().filter(|f| !f.name.starts_with("sorted")) {
            let mut failure: Option<String> = None;
            at_each_cap(|cap| {
                if let Err(e) = grow_and_check(family, &rels.left, &rels.right, &sizes) {
                    failure.get_or_insert(format!("at {cap} threads: {e}"));
                }
            });
            prop_assert!(failure.is_none(), "{}", failure.unwrap());
        }
    }
}

fn texts(base: u64, values: &[&str]) -> Vec<Record> {
    values
        .iter()
        .enumerate()
        .map(|(k, t)| Record::new(base + k as u64, vec![AttrValue::from(*t)]))
        .collect()
}

/// A token family with a cut loose enough to flip on a handful of records.
fn flip_family() -> Family {
    let blocker = TokenBlocker {
        min_shared: 1,
        max_token_frequency: 0.5,
    };
    Family {
        name: "token-flip",
        blocker: Box::new(blocker),
        oracle: Box::new(move |l, r| reference::token_candidates(&blocker, l, r)),
    }
}

/// Active → stopped as a feature's document frequency grows: "brand"
/// pairs the two old records (df 2 of 4 records, cut at 2), then the
/// appends push its df past the moved cut. The old pair must disappear —
/// only a re-probe of the old row can drop it.
#[test]
fn flip_to_stopped_as_document_frequency_grows() {
    let left = texts(0, &["brand alpha", "gamma one", "brand omega"]);
    let right = texts(100, &["brand beta", "delta two", "brand x", "brand y"]);
    let family = flip_family();
    // Right appends alone push the df past the cut; so does a left
    // append followed by right appends.
    for sizes in [vec![(2, 2), (2, 4)], vec![(2, 2), (3, 2), (3, 4)]] {
        at_each_cap(|cap| {
            let steps = grow_and_check(&family, &left, &right, &sizes)
                .unwrap_or_else(|e| panic!("at {cap} threads: {e}"));
            assert_eq!(steps[0], vec![(0, 0)], "setup: brand pairs the old records");
            assert!(
                !steps.last().unwrap().contains(&(0, 0)),
                "brand must be stopped after the appends"
            );
        });
    }
}

/// Stopped → active as the threshold rises: "brand" is in all three old
/// records (df 3, cut at 2), and appends of unrelated records raise the
/// cut to 3. Pairs between *old* records appear — only a re-probe of the
/// old row can add them, since the posting suffixes past the old right
/// length do not hold them.
#[test]
fn flip_to_active_as_the_threshold_rises() {
    let left = texts(0, &["brand alpha", "one", "two", "three"]);
    let right = texts(100, &["brand beta", "brand gamma", "four", "five", "six"]);
    let family = flip_family();
    for sizes in [
        vec![(1, 2), (4, 2)],
        vec![(1, 2), (1, 5)],
        vec![(1, 2), (2, 3), (3, 4)],
    ] {
        at_each_cap(|cap| {
            let steps = grow_and_check(&family, &left, &right, &sizes)
                .unwrap_or_else(|e| panic!("at {cap} threads: {e}"));
            assert!(steps[0].is_empty(), "setup: brand starts stopped");
            let last = steps.last().unwrap();
            assert!(
                last.contains(&(0, 0)) && last.contains(&(0, 1)),
                "brand must pair the old records once active, got {last:?}"
            );
        });
    }
}

/// Sorted neighbourhood cannot resume — an appended record shifts every
/// window after its sort position — so its growth entry reports
/// unsupported, and callers probe cold.
#[test]
fn sorted_neighbourhood_reports_growth_unsupported() {
    let rels = em_datagen::serve_relations(20, 20, 0.3, 3);
    let blocker = SortedNeighbourhood { window: 4 };
    let cfg = blocker.required_features();
    let left = RelationIndex::build(&rels.left, &cfg);
    let right = RelationIndex::build(&rels.right, &cfg);
    assert!(blocker
        .candidates_grown(&left, &right, &CandidateSet::default())
        .is_none());
}

/// The serving configuration at a deterministic, non-trivial scale: one
/// straight pin that the banded probe is exact where it matters most.
#[test]
fn serving_blocker_parity_at_scale() {
    let rels = em_datagen::serve_relations(400, 400, 0.3, 7);
    let blocker = TokenBlocker {
        min_shared: 2,
        max_token_frequency: 0.05,
    };
    let expect = reference::token_candidates(&blocker, &rels.left, &rels.right);
    assert!(!expect.is_empty(), "degenerate workload: no candidates");
    at_each_cap(|cap| {
        let got = blocker.candidates(&rels.left, &rels.right);
        assert_eq!(
            got, expect,
            "token serving config diverged at {cap} threads"
        );
    });
}
