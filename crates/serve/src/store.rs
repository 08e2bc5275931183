//! Record stores: one relation plus its precomputed serialized texts.

use em_core::{Record, Serializer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide store-id source: every distinct store (including clones)
/// gets its own identity so a pipeline's cached blocking state can never
/// alias two stores that merely share content.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_store_id() -> u64 {
    NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed)
}

/// An in-memory relation prepared for serving: every record's
/// values-only serialization (the only view matchers receive) is rendered
/// once at load time into a shared `Arc<str>`, so a candidate pair is two
/// reference-count bumps instead of two string copies.
///
/// A store carries an *identity*: a process-unique `store_id` plus a
/// `generation` counter bumped on every mutation. `(store_id, generation)`
/// keys the pipeline's persistent blocking state — warm runs over an
/// unchanged store skip tokenization, index construction, and the probe
/// entirely. The only mutation is [`append`](RecordStore::append), so a
/// store seen again under its `store_id` at a later generation holds the
/// records seen before as a prefix: the pipeline extends that side's
/// index with the appended records and resumes the probe instead of
/// rebuilding.
#[derive(Debug)]
pub struct RecordStore {
    records: Vec<Record>,
    texts: Vec<Arc<str>>,
    serializer: Serializer,
    /// `true` when the serializer was handed in explicitly
    /// ([`with_serializer`](RecordStore::with_serializer)) rather than
    /// derived — an explicit serializer survives appends into an
    /// initially-empty store.
    explicit_serializer: bool,
    store_id: u64,
    generation: u64,
}

impl Clone for RecordStore {
    /// Clones the data but *not* the identity: the clone is a new store
    /// (fresh `store_id`, generation 0), because its future mutations are
    /// independent of the original's.
    fn clone(&self) -> Self {
        RecordStore {
            records: self.records.clone(),
            texts: self.texts.clone(),
            serializer: self.serializer.clone(),
            explicit_serializer: self.explicit_serializer,
            store_id: fresh_store_id(),
            generation: 0,
        }
    }
}

impl RecordStore {
    /// Builds a store, rendering all serializations in identity column
    /// order (the serving system has one canonical serialization; the
    /// per-seed permutations belong to the LODO repetition protocol).
    pub fn new(records: Vec<Record>) -> Self {
        let arity = records.first().map(|r| r.values.len()).unwrap_or(0);
        Self::build(records, Serializer::identity(arity), false)
    }

    /// Builds a store that renders under an explicit serializer — the
    /// entry point for serialization-ablation runs (shuffled column
    /// order, `name: value` style). The serializer's fingerprint flows
    /// into the pipeline's score-cache key, so scores cached under one
    /// serialization are never replayed under another.
    pub fn with_serializer(records: Vec<Record>, serializer: Serializer) -> Self {
        Self::build(records, serializer, true)
    }

    fn build(records: Vec<Record>, serializer: Serializer, explicit: bool) -> Self {
        let texts = records
            .iter()
            .map(|r| Arc::from(serializer.record(r)))
            .collect();
        RecordStore {
            records,
            texts,
            serializer,
            explicit_serializer: explicit,
            store_id: fresh_store_id(),
            generation: 0,
        }
    }

    /// Appends records, rendering their texts and bumping the generation
    /// so pipelines extend this side's blocking state on the next run.
    pub fn append(&mut self, records: Vec<Record>) {
        if records.is_empty() {
            return;
        }
        if self.records.is_empty() && !self.explicit_serializer {
            // The store was built empty, so the arity (and thus the
            // serializer) could not be derived at construction time. An
            // explicitly provided serializer is kept as-is.
            let arity = records[0].values.len();
            self.serializer = Serializer::identity(arity);
        }
        let rendered: Vec<Arc<str>> = records
            .iter()
            .map(|r| Arc::from(self.serializer.record(r)))
            .collect();
        self.texts.extend(rendered);
        self.records.extend(records);
        self.generation += 1;
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The underlying records (what blockers consume).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The record at `idx`.
    pub fn record(&self, idx: usize) -> &Record {
        &self.records[idx]
    }

    /// The precomputed serialization of the record at `idx`.
    pub fn text(&self, idx: usize) -> &str {
        &self.texts[idx]
    }

    /// The shared handle to the serialization at `idx` — cloning it is a
    /// reference-count bump, never a string copy.
    pub fn shared_text(&self, idx: usize) -> Arc<str> {
        Arc::clone(&self.texts[idx])
    }

    /// The stable id of the record at `idx` (cache key material).
    pub fn id(&self, idx: usize) -> u64 {
        self.records[idx].id
    }

    /// Process-unique identity of this store.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Mutation counter; bumped by [`append`](RecordStore::append).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `(store_id, generation)` — the key under which derived blocking
    /// state (indexes, candidates, serialized views) stays valid.
    pub fn cache_key(&self) -> (u64, u64) {
        (self.store_id, self.generation)
    }

    /// Fingerprint of the serializer the texts were rendered with —
    /// score-cache key material (see [`em_core::Serializer::fingerprint`]).
    pub fn serializer_fingerprint(&self) -> u64 {
        self.serializer.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::AttrValue;

    #[test]
    fn texts_match_identity_serialization() {
        let store = RecordStore::new(vec![
            Record::new(7, vec![AttrValue::from("sony tv"), AttrValue::from(99.0)]),
            Record::new(8, vec![AttrValue::from("lamp"), AttrValue::Missing]),
        ]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.text(0), "sony tv, 99");
        assert_eq!(store.text(1), "lamp, ");
        assert_eq!(store.id(0), 7);
    }

    #[test]
    fn empty_store_is_fine() {
        let store = RecordStore::new(vec![]);
        assert!(store.is_empty());
    }

    #[test]
    fn append_bumps_generation_and_renders_texts() {
        let mut store = RecordStore::new(vec![Record::new(
            1,
            vec![AttrValue::from("a"), AttrValue::from("b")],
        )]);
        assert_eq!(store.generation(), 0);
        store.append(vec![Record::new(
            2,
            vec![AttrValue::from("c"), AttrValue::from("d")],
        )]);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.text(1), "c, d");
        // Appending nothing is not a mutation.
        store.append(vec![]);
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn stores_have_distinct_identities() {
        let a = RecordStore::new(vec![]);
        let b = RecordStore::new(vec![]);
        let c = a.clone();
        assert_ne!(a.store_id(), b.store_id());
        assert_ne!(a.store_id(), c.store_id(), "clone must not alias");
    }

    #[test]
    fn explicit_serializer_renders_and_survives_appends() {
        let named = Serializer::identity(2).with_names(vec!["name".into(), "price".into()]);
        let mut store = RecordStore::with_serializer(vec![], named.clone());
        assert_eq!(store.serializer_fingerprint(), named.fingerprint());
        store.append(vec![Record::new(
            1,
            vec![AttrValue::from("tv"), AttrValue::from(99.0)],
        )]);
        // Appending into the initially-empty store must NOT reset the
        // explicit serializer to the identity.
        assert_eq!(store.text(0), "name: tv, price: 99");
        assert_eq!(store.serializer_fingerprint(), named.fingerprint());
    }

    #[test]
    fn serializer_fingerprint_distinguishes_variants() {
        let recs = vec![Record::new(
            1,
            vec![AttrValue::from("a"), AttrValue::from("b")],
        )];
        let plain = RecordStore::new(recs.clone());
        let named = RecordStore::with_serializer(
            recs,
            Serializer::identity(2).with_names(vec!["x".into(), "y".into()]),
        );
        assert_ne!(
            plain.serializer_fingerprint(),
            named.serializer_fingerprint()
        );
    }

    #[test]
    fn shared_text_aliases_the_stored_rendering() {
        let store = RecordStore::new(vec![Record::new(1, vec![AttrValue::from("x")])]);
        let t = store.shared_text(0);
        assert!(Arc::ptr_eq(&t, &store.shared_text(0)));
        assert_eq!(&*t, "x");
    }
}
