#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; the
bound of each end-to-end metric in ``BENCHMARK.json`` is judged on it.

Run from the repository root:

    python3 perfbench/spread.py --workload serve_cold --seeds 1-10 --seconds 10

``--trace 1`` summarises the per-layer metrics instead. With ``--bin`` the
given executable runs in place of ``cargo run``.
"""

import argparse
import json
import statistics
import subprocess
import sys

CARGO = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml", "--bin", "perfbench", "--"]


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()
    cmd = [args.bin] if args.bin else CARGO
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(line)
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {out.returncode})\n{out.stderr}",
                  file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':<32}{'median':>14}{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print(f"{name:<32}{med:>14.6g}{spread:>9.4f}"
              f"{'' if bound is None else format(bound, '>7')}")


if __name__ == "__main__":
    main()
