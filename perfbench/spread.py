"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cq-count --seeds 1-10 [--trace 0]

For every metric it prints the per-seed values, the median, and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median; for end-to-end metrics it also prints that share against
a third of the metric's bound in ``BENCHMARK.json``.  Runs go one after
another, each in its own process.  ``--jsonl`` appends every result line to a
file, so the per-seed numbers can be kept.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--jsonl", type=pathlib.Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            if args.jsonl:
                with args.jsonl.open("a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} (seeds {args.seeds[0]}..{args.seeds[-1]})")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else 0.0
            line = f"{name:48s} median {med:12.6g}  iqr/median {share:6.3f}"
            if name in bounds:
                line += f"  (bound/3 {bounds[name] / 3:.3f})"
                if name != "setup_s":
                    worst = max(worst, share / (bounds[name] / 3))
            print(line + "  " + " ".join(f"{v:.4g}" for v in vs))
    if args.trace == 0:
        print(f"largest spread against bound/3 (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
