#!/usr/bin/env bash
# Profiles the serving pipeline: runs the bench_serve smoke (2k×2k
# relations through blocking → StringSim → SLM → hosted-LLM cascade) and
# verifies the serve.* observability surface is populated — the candidate,
# cache-hit, escalation and match counters the production dashboards
# would graph.
#
# The full 100k×100k measurement is `bench_serve` without --smoke; its
# results are checked in as BENCH_serve.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p em-bench --bin bench_serve --bin drift_serve

echo "== serve smoke (2k x 2k) =="
serve_out="$(./target/release/bench_serve target/profile-bench-serve.json --smoke)"
printf '%s\n' "$serve_out"

# The cascade must leave its counter trail: candidates from the blocker,
# scored pairs and escalations from the stage loop, cache hits from the
# warm run, matches from the final thresholding — plus the blocking
# index's own surface: postings interned at build time, tokens removed
# by the document-frequency stop cut, and raw (pre-min_shared) candidate
# touches from the banded probe.
for counter in serve.candidates serve.scored serve.escalated serve.cache_hits \
               serve.matches serve.blocking_reused serve.bucket_pad_saved \
               block.postings block.stopped_tokens block.candidates_raw block.probes; do
    if ! grep -q "$counter" <<<"$serve_out"; then
        echo "profile is missing the $counter counter"
        exit 1
    fi
done
echo "serve.* and block.* counters present in the metrics registry"

# The SLM fast path must actually engage: length-bucketed collation
# reports the padding tokens it avoided, and a zero here means every
# model batch was padded to max_seq — the fast path silently fell back
# to the slow collation.
pad_saved="$(awk '/serve\.bucket_pad_saved/ { print $2 }' <<<"$serve_out")"
if [ -z "$pad_saved" ] || [ "$pad_saved" -eq 0 ]; then
    echo "bucketed collation saved no padding: serve.bucket_pad_saved = ${pad_saved:-missing}"
    exit 1
fi
echo "bucketed collation live: $pad_saved padded tokens avoided"

# The warm run answers entirely from the score cache: the cache-hit
# counter must cover at least one full stage pass over the candidate
# set. `serve.candidates` accumulates across every pipeline run the
# bench performs — cold, warm, the f32 baseline and the int8 flip-rate
# run, four in all over the same candidates — while only the warm run
# hits the cache, so one stage pass is a quarter of the counter. (The exact per-stage invariant, cache_hits ==
# pairs_in with zero matcher calls, is asserted inside bench_serve.)
cands="$(awk '/serve\.candidates/ { print $2 }' <<<"$serve_out")"
hits="$(awk '/serve\.cache_hits/ { print $2 }' <<<"$serve_out")"
if [ "$hits" -lt "$((cands / 4))" ]; then
    echo "warm run barely hit the cache: $hits hits for $cands candidates"
    exit 1
fi
echo "score cache live: $hits cache hits across $cands blocked candidates"

echo "== drift drill smoke (ramping perturbation rate) =="
drift_out="$(./target/release/drift_serve target/profile-bench-drift.json --smoke)"
printf '%s\n' "$drift_out"

# The perturbation layer must leave its own counter trail alongside the
# serve.* surface: perturbed records plus the per-operator effect
# counters of the drill's noise plan (typo, token drop, null-out). The
# counters ride the same em-obs registry the <2% tracing-overhead budget
# (scripts/profile_lodo.sh) is measured against — no new hot-path cost.
for counter in perturb.records perturb.typos perturb.tokens_dropped \
               perturb.values_nulled serve.candidates serve.escalated; do
    if ! grep -q "$counter" <<<"$drift_out"; then
        echo "drift profile is missing the $counter counter"
        exit 1
    fi
done
echo "perturb.* counters present in the metrics registry"
