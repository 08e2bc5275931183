#!/usr/bin/env bash
# Tier-1 gate: release build + the fast test suite, exactly as CI runs it.
#
# The criterion micro-benchmark harness is behind the opt-in
# `bench-harness` feature of em-bench, so this never compiles criterion;
# run `cargo bench -p em-bench --features bench-harness` separately for
# the micro-benchmarks, or `cargo run --release -p em-bench --bin
# bench_gemm` for the GEMM before/after numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace matters: the repo root is a workspace *and* a package, so a
# bare `cargo build` covers only the root package and would leave the
# em-bench bins this script runs (bench_attention, bench_finetune,
# bench_zoo, bench_serve, chaos_lodo) unbuilt on a fresh target dir.
cargo build --release --workspace
cargo test -q --workspace

# EM_TRACE smoke: the observability integration test must produce a
# non-empty JSONL trace file when the env flag is set. Absolute path:
# cargo runs test binaries with the *package* dir as cwd, so a relative
# EM_TRACE would land under crates/core/.
trace="$PWD/target/tier1-trace.jsonl"
rm -f "$trace"
EM_TRACE="$trace" cargo test -q -p em-core --test obs_integration
test -s "$trace" || { echo "EM_TRACE smoke failed: $trace is empty"; exit 1; }
echo "EM_TRACE smoke: $(wc -l < "$trace") trace records in $trace"

# Fused-attention gates: the kernel-equivalence + thread-parity suite
# (fused kernel vs the naive em_nn::reference oracle at 1/2/8 threads),
# then an attention-bench smoke — a tiny shape that still runs the
# seed-vs-fused equivalence asserts inside the bench harness.
cargo test -q -p em-nn --test attention_equivalence
attn_bench="$PWD/target/tier1-bench-attention.json"
./target/release/bench_attention "$attn_bench" --smoke
test -s "$attn_bench" || { echo "attention bench smoke failed: $attn_bench is empty"; exit 1; }
echo "attention bench smoke: wrote $attn_bench"

# Fused-training-step gates: the optimizer-equivalence + thread-parity
# suite (fused Adam/SGD vs the naive em_nn::reference oracles, bitwise,
# at 1/2/8 threads), the fine-tuning parity suite (pad-to-batch-max vs
# full padding, bitwise; whole training runs at 1/2/8 threads), then a
# fine-tune-bench smoke — a tiny shape that still runs the seed-vs-fused
# equivalence asserts inside the bench harness.
cargo test -q -p em-nn --test optim_equivalence
cargo test -q -p em-lm --test finetune_parity
ft_bench="$PWD/target/tier1-bench-finetune.json"
./target/release/bench_finetune "$ft_bench" --smoke
test -s "$ft_bench" || { echo "finetune bench smoke failed: $ft_bench is empty"; exit 1; }
echo "finetune bench smoke: wrote $ft_bench"

# Inference-path gates: the int8-GEMM equivalence suite (packed VNNI
# path vs the naive quantized oracle, bitwise, incl. thread parity at
# 1/2/8 threads and the f32-restore toggle), the prefix-cache suite
# (cached zoo scoring vs full recompute, bitwise at 1/2/8 threads; int8
# drift/flip-rate bounds on a trained tier), then a zoo-bench smoke — a
# tiny shape that still runs the cached-vs-recompute and int8-drift
# asserts inside the bench harness.
cargo test -q -p em-nn --test qgemm_equivalence
cargo test -q -p em-lm --test prefix_equivalence
zoo_bench="$PWD/target/tier1-bench-zoo.json"
./target/release/bench_zoo "$zoo_bench" --smoke
test -s "$zoo_bench" || { echo "zoo bench smoke failed: $zoo_bench is empty"; exit 1; }
echo "zoo bench smoke: wrote $zoo_bench"

# Serving-pipeline gates: the blocker property suite (sorted/deduped
# subsets of the cross product, pair-completeness floors on generated
# relations — incl. the three PR-7 regression fixes), the
# blocking-equivalence suite (indexed banded-parallel candidates vs the
# sequential em_blocking::reference oracles, bitwise, at 1/2/8 threads,
# incl. index-reuse-after-growth), the cascade invariant suite
# (margin-exact escalation, bitwise cache hits, blocking-state reuse and
# generation invalidation, bounded-cache eviction, deep-stage
# degradation, hosted-stage recovery, scores/reports/cache bitwise at
# 1/2/8 threads), then blocking- and serve-bench smokes — the blocking one
# re-runs the reference-vs-indexed bitwise asserts on 2k×2k, the serve
# one pushes 2k×2k through the full blocking → StringSim → SLM →
# hosted-LLM cascade with the cost-vs-baseline, warm-cache and
# blocking-reuse asserts live. The serve-inference fast-path gate rides
# here too: the SLM fast-path suite (bucketed collation ≡ per-pair
# scoring bitwise in f32 and int8, thread parity, exact-token billing).
cargo test -q -p em-blocking --test blocker_properties
cargo test -q -p em-blocking --test parallel_equivalence
cargo test -q -p em-serve --test cascade_invariants
cargo test -q -p em-serve --test slm_fastpath
block_bench="$PWD/target/tier1-bench-blocking.json"
./target/release/bench_blocking "$block_bench" --smoke
test -s "$block_bench" || { echo "blocking bench smoke failed: $block_bench is empty"; exit 1; }
echo "blocking bench smoke: wrote $block_bench"
serve_bench="$PWD/target/tier1-bench-serve.json"
./target/release/bench_serve "$serve_bench" --smoke
test -s "$serve_bench" || { echo "serve bench smoke failed: $serve_bench is empty"; exit 1; }
echo "serve bench smoke: wrote $serve_bench"

# Chaos smoke: a small LODO sweep through the resilient hosted client at
# a 10% injected-fault rate must complete with zero aborted items and
# metrics bit-identical to the fault-free run, a killed checkpoint must
# resume bitwise, and a dead backend must degrade to the StringSim
# fallback (see crates/bench/src/bin/chaos_lodo.rs for the assertions).
./target/release/chaos_lodo --smoke

# Perturbation-robustness gates: the em-perturb determinism suite (every
# operator bitwise-reproducible given (seed, config), batch-order and
# parallel-chunking independent), the serializer property suite (shuffles
# are permutations, record_into ≡ record, both styles deterministic under
# a fixed seed), then two harness smokes — the sensitivity slice sweeps
# 2 matchers × 3 perturbations and checkpoints every cell, the drift
# drill ramps the perturbation rate over a 2-stage cascade and asserts
# the monotone escalation / rising-spend / stage-0-fatal-free contract.
cargo test -q -p em-perturb --test determinism
cargo test -q -p em-core --test serializer_properties
sens_smoke="$PWD/target/tier1-sensitivity.json"
./target/release/sensitivity "$sens_smoke" --smoke
test -s "$sens_smoke" || { echo "sensitivity smoke failed: $sens_smoke is empty"; exit 1; }
echo "sensitivity smoke: wrote $sens_smoke"
drift_smoke="$PWD/target/tier1-drift.json"
./target/release/drift_serve "$drift_smoke" --smoke
test -s "$drift_smoke" || { echo "drift drill smoke failed: $drift_smoke is empty"; exit 1; }
echo "drift drill smoke: wrote $drift_smoke"

# Portable-kernel gate: the em-nn suite rebuilt with AVX-512 switched off,
# so the non-AVX-512 side of every `cfg`-gated kernel (fast f32 GEMM,
# fast softmax, GELU and LayerNorm, int8 qgemm and its dequantize
# epilogue) compiles and passes too — together with the em-lm and
# em-serve suites, whose encoder and int8-serve equivalence tests run on
# top of those kernels. Its own target dir keeps the native build's
# artifacts.
CARGO_TARGET_DIR=target/portable \
    RUSTFLAGS="-C target-cpu=native -C target-feature=-avx512f,-avx512vnni" \
    cargo test --release -q -p em-nn -p em-lm -p em-serve

# Repository benchmark tests (perfbench/README.md): BENCHMARK.json
# matches the metrics the program prints, and a scaled-down instance of
# each workload does identical work and gives an identical output digest
# twice in one process.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Benchmark trajectory: regenerate the BENCH_TRAJECTORY.md roll-up from
# the checked-in BENCH_*.json files so the cross-PR perf table never
# drifts from the numbers it summarizes.
./scripts/bench_trajectory.sh
