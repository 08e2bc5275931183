//! # em-serve — the production serving pipeline
//!
//! Converts the repo's matchers from offline LODO artifacts into an
//! end-to-end matching service (the system the paper's matchers "can be
//! easily plugged into", §2.1):
//!
//! 1. two [`RecordStore`]s hold the input relations with their
//!    serializations pre-rendered;
//! 2. a configurable [`em_blocking::Blocker`] prunes the cross product to
//!    candidate pairs;
//! 3. a **confidence-gated cascade** of [`Stage`]s scores them
//!    cheap-first — StringSim, then a frozen fine-tuned SLM
//!    ([`FrozenSlm`]), then a hosted LLM behind the resilient client —
//!    escalating only pairs whose confidence `|2s − 1|` is below the
//!    stage margin. Each stage finishes before the next starts; the
//!    threads work inside a stage (chunked StringSim, parallel SLM
//!    length buckets), so results never depend on the thread count;
//! 4. a pair-keyed, stage-scoped [`ScoreCache`] makes revisits free and
//!    bitwise-stable;
//! 5. [`em_cost`] bills each stage's scored tokens, and `serve.*` spans /
//!    counters expose the run to `em-obs`.
//!
//! Failure handling: a hosted stage that degrades internally (breaker
//! open → fallback matcher) reports `degraded`; a stage that errors
//! outright keeps the previous stage's scores for its pairs — only a
//! stage-0 error aborts the run.

pub mod cache;
pub mod pipeline;
pub mod stage;
pub mod store;

pub use cache::ScoreCache;
pub use pipeline::{ServePipeline, ServeReport, StageReport};
pub use stage::{approx_tokens, FrozenSlm, Stage};
pub use store::RecordStore;
