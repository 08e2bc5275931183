//! Exact-counter determinism: a scaled-down instance of each workload,
//! run twice in one process, does identical work and gives an identical
//! output digest; the held-out seed gives another digest, which shows the
//! seed reaches the generators.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{probe, Kind, Scale, DEFAULT_SEED, HELD_OUT_SEED};
use std::sync::Mutex;

/// Trace capture and the counters are process-wide, so the workloads
/// take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn check(kind: Kind, must_move: &[&str]) {
    let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale::tiny();
    let (d1, c1) = probe(kind, &scale, DEFAULT_SEED, 2);
    let (d2, c2) = probe(kind, &scale, DEFAULT_SEED, 2);
    assert_eq!(
        c1,
        c2,
        "{}: work counters differ between identical runs",
        kind.name()
    );
    assert_eq!(
        d1,
        d2,
        "{}: output digest differs between identical runs",
        kind.name()
    );
    for name in must_move {
        assert!(
            c1.get(*name).copied().unwrap_or(0.0) > 0.0,
            "{}: counter {name} did not move: {c1:?}",
            kind.name()
        );
    }
    let (d3, _) = probe(kind, &scale, HELD_OUT_SEED, 2);
    assert_ne!(
        d1,
        d3,
        "{}: the seed does not reach the inputs",
        kind.name()
    );
}

#[test]
fn serve_cold_is_deterministic() {
    check(
        Kind::ServeCold,
        &[
            "blocking.candidates",
            "stage.strsim.scored",
            "stage.slm.scored",
            "stage.slm.tokens",
            "qgemm.flops",
            "finetune.tokens",
        ],
    );
}

#[test]
fn serve_ingest_is_deterministic() {
    check(
        Kind::ServeIngest,
        &[
            "blocking.candidates",
            "stage.strsim.scored",
            "stage.slm.scored",
            "qgemm.flops",
        ],
    );
}

#[test]
fn lodo_study_is_deterministic() {
    check(
        Kind::LodoStudy,
        &["finetune.tokens", "lm.prefix_tokens_saved"],
    );
}
