//! Cascade stages: a fitted matcher plus its gating margin and price.

use em_core::{run_chunks, EmError, EvalBatch, LodoSplit, Matcher, Result, SerializedPair};
use em_lm::{encode_pair, Batch, Encoded, EncoderClassifier, HashTokenizer, InferencePrecision};

/// One stage of the matcher cascade.
///
/// The matcher arrives already fitted (or parameter-free); the serving
/// pipeline never trains. `margin` gates escalation: a pair whose score
/// confidence `|2s − 1|` falls below it is forwarded to the next stage.
/// `usd_per_1k_tokens` prices the stage's scoring for the per-stage
/// `em_cost` bill (0 for free local stages like StringSim).
pub struct Stage {
    /// Display name for reports and spans.
    pub name: String,
    /// The fitted matcher answering this stage.
    pub matcher: Box<dyn Matcher>,
    /// Escalate when `|2s − 1| < margin`. 0 disables escalation from this
    /// stage; 1 escalates everything but exact 0/1 scores.
    pub margin: f64,
    /// Price per 1K (approximate) tokens scored at this stage.
    pub usd_per_1k_tokens: f64,
}

impl Stage {
    /// A free stage with the default 0.3 escalation margin.
    pub fn new(name: impl Into<String>, matcher: Box<dyn Matcher>) -> Self {
        Stage {
            name: name.into(),
            matcher,
            margin: 0.3,
            usd_per_1k_tokens: 0.0,
        }
    }

    /// Sets the escalation margin.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!((0.0..=1.0).contains(&margin), "margin {margin} outside [0,1]");
        self.margin = margin;
        self
    }

    /// Sets the per-1K-token price.
    pub fn priced(mut self, usd_per_1k_tokens: f64) -> Self {
        self.usd_per_1k_tokens = usd_per_1k_tokens;
        self
    }

    /// Tokens to bill for the batch the stage's matcher just scored.
    ///
    /// Local tiers that know their real consumption (a [`FrozenSlm`]
    /// knows its encoded lengths) report it through
    /// [`Matcher::exact_billed_tokens`]; everything else falls back to
    /// the serialized-bytes/4 approximation. The exact path stops the
    /// bill counting bytes the encoder truncated away — a padded or
    /// over-long pair bills what the model actually consumed.
    pub fn bill_exact_tokens(&self, batch: &EvalBatch) -> u64 {
        match self.matcher.exact_billed_tokens() {
            Some(exact) if exact.len() == batch.len() => exact.iter().sum(),
            _ => batch.serialized.iter().map(approx_tokens).sum(),
        }
    }
}

/// Approximate token count of a serialized pair (the ~4 bytes/token rule
/// the price book uses), never zero so every scored pair bills something.
pub fn approx_tokens(pair: &SerializedPair) -> u64 {
    (pair.len_bytes() as u64 / 4).max(1)
}

/// Pairs encoded per parallel work item on the serve tokenization path.
const ENCODE_CHUNK: usize = 256;

/// A pre-trained encoder classifier served frozen — the cascade's
/// fine-tuned-SLM tier. Unlike `em_matchers::Ditto`, which trains inside
/// `fit` for the LODO protocol, this wrapper takes finished weights: the
/// serving system loads a model, it doesn't grow one.
///
/// Scoring runs the full inference fast path:
///
/// - **parallel tokenization** — pairs are encoded in
///   [`ENCODE_CHUNK`]-sized chunks over the shared threadpool;
/// - **length-bucketed collation** — indices are stable-sorted by
///   encoded (valid) length, chunked into model batches, and each bucket
///   is pad-to-batch-max collated, so short pairs never pay a long
///   pair's padding; the buckets' forwards run in parallel over the
///   shared threadpool and scores are scattered back to input order;
/// - **optional int8 GEMMs** — [`Self::with_precision`] wires
///   `em_nn::qgemm` into every Linear (guarded by the qgemm flip-rate /
///   drift gates; `Full` restores f32 bits).
///
/// Every step is per-sequence independent (per-row activation
/// quantization, masked attention, masked mean pooling, exact i32
/// accumulation), so bucketing and batch composition never change a
/// pair's score bits — the scattered result is bitwise-identical to
/// scoring in input order, which `tests/` pin.
pub struct FrozenSlm {
    name: String,
    model: EncoderClassifier,
    tokenizer: HashTokenizer,
    batch_size: usize,
    /// Valid encoded length per pair of the most recent scoring call —
    /// the tokens the model actually consumed, for exact billing.
    last_exact_tokens: Vec<u64>,
}

impl FrozenSlm {
    /// Wraps trained weights and their tokenizer.
    pub fn new(name: impl Into<String>, model: EncoderClassifier, tokenizer: HashTokenizer) -> Self {
        FrozenSlm {
            name: name.into(),
            model,
            tokenizer,
            batch_size: 64,
            last_exact_tokens: Vec::new(),
        }
    }

    /// Switches the inference GEMM precision (`Int8` quantizes every
    /// Linear; `Full` restores the original f32 bits).
    pub fn with_precision(mut self, precision: InferencePrecision) -> Self {
        self.model.set_inference_precision(precision);
        self
    }

    /// Sets the model batch size (sequences per forward call, which is
    /// also the length-bucket width). Must be positive.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// The one scoring path both [`Matcher::predict`] and
    /// [`Matcher::predict_scores`] route through, so the ≥0.5 decision
    /// can never diverge from the score surface.
    fn scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        self.last_exact_tokens.clear();
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let max_seq = self.model.config.max_seq;

        // Tokenize in parallel chunks; chunk-order merge keeps input order.
        let tok = &self.tokenizer;
        let chunks: Vec<&[SerializedPair]> = batch.serialized.chunks(ENCODE_CHUNK).collect();
        let encoded: Vec<Encoded> = run_chunks(&chunks, |chunk| {
            chunk
                .iter()
                .map(|p| encode_pair(tok, p, max_seq))
                .collect::<Vec<_>>()
        })?
        .into_iter()
        .flatten()
        .collect();

        // Valid (unpadded) length per pair: what the model consumes and
        // what the stage bills. Floor 1 to match the collation floor.
        let valid: Vec<usize> = encoded
            .iter()
            .map(|e| e.mask.iter().rposition(|&m| m).map_or(1, |p| p + 1))
            .collect();
        self.last_exact_tokens = valid.iter().map(|&v| v as u64).collect();

        // Length buckets: stable sort of indices keeps equal-length pairs
        // in input order, so the bucket assignment is deterministic.
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        order.sort_by_key(|&i| valid[i]);

        // Buckets are independent forwards: they fan out over the shared
        // threadpool, each collating its own batch. Longest first, so the
        // cheapest buckets fill the gaps and the workers finish together.
        let model = &self.model;
        let buckets: Vec<&[usize]> = order.chunks(self.batch_size).rev().collect();
        let forwards = run_chunks(&buckets, |bucket| {
            let mut model_batch = Batch::empty();
            model_batch.collate_indices_into(&encoded, bucket);
            (
                model.forward(&model_batch),
                model_batch.padded_tokens_saved(max_seq),
            )
        })?;

        let mut scores = vec![0.0f32; encoded.len()];
        let mut pad_saved = 0usize;
        for (bucket, (logits, saved)) in buckets.iter().zip(forwards) {
            if logits.len() != bucket.len() {
                return Err(EmError::Numeric("SLM score batch size mismatch".into()));
            }
            pad_saved += saved;
            for (&p, logit) in bucket.iter().zip(logits) {
                scores[p] = em_nn::sigmoid_f32(logit);
            }
        }
        em_obs::metrics::counter("serve.bucket_pad_saved").add(pad_saved as u64);
        Ok(scores)
    }
}

impl Matcher for FrozenSlm {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn params_millions(&self) -> Option<f64> {
        Some(self.model.param_count() as f64 / 1e6)
    }

    fn fit(&mut self, _split: &LodoSplit<'_>, _seed: u64) -> Result<()> {
        // Weights are frozen; serving never trains.
        Ok(())
    }

    fn predict(&mut self, batch: &EvalBatch) -> Result<Vec<bool>> {
        Ok(self.scores(batch)?.into_iter().map(|s| s >= 0.5).collect())
    }

    fn predict_scores(&mut self, batch: &EvalBatch) -> Result<Vec<f32>> {
        self.scores(batch)
    }

    fn exact_billed_tokens(&self) -> Option<Vec<u64>> {
        Some(self.last_exact_tokens.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_matchers::StringSim;

    #[test]
    fn builder_sets_fields() {
        let s = Stage::new("strsim", Box::new(StringSim::new()))
            .with_margin(0.4)
            .priced(0.015);
        assert_eq!(s.name, "strsim");
        assert_eq!(s.margin, 0.4);
        assert_eq!(s.usd_per_1k_tokens, 0.015);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn margin_is_validated() {
        let _ = Stage::new("x", Box::new(StringSim::new())).with_margin(1.5);
    }

    #[test]
    fn approx_tokens_never_zero() {
        let tiny = SerializedPair {
            left: "a".into(),
            right: "b".into(),
        };
        assert_eq!(approx_tokens(&tiny), 1);
        let bigger = SerializedPair {
            left: "x".repeat(40).into(),
            right: "y".repeat(40).into(),
        };
        assert_eq!(approx_tokens(&bigger), 20);
    }
}
