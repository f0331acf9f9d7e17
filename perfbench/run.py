"""Benchmark runner: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload degree2-sweep --seed 1 --seconds 30 --trace 0

The runner re-executes itself once with ``PYTHONHASHSEED`` derived from the
seed, so ``frozenset`` iteration order, and with it the search order inside
the library, is a function of the seed.  It then sets up the workload several
times (a cold import of ``hgdilute`` from ``src/`` plus input generation) and
keeps the median as ``setup_s``.  The timed phase runs whole rounds of jobs
back to back on one thread, a closed loop with one caller, until at least
MIN_ROUNDS rounds and ``--seconds`` of job time have passed.  Every round
draws fresh inputs from the seed.  ``jobs_per_s`` weighs every job position
of the round by its mean latency over the rounds; ``job_p50_ms`` and
``job_tail_ms`` are percentiles of every job run.

Every time the result reports (set-up and job latencies) is wall time scaled
to a reference machine speed by a fixed kernel timed between jobs (see
``calibration.py``), because the shared host's own speed swings by up to 1.8x
within seconds.  The unscaled job time is printed beside it.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` every round runs twice from the same certificate-cache state,
untraced and then with the spans of ``tracing.py``; the result carries the
per-layer metrics and the tracing overhead, and the spans are written to
``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time
import types

import calibration

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 9
MODULES = ("hypergraph", "dilution", "decomposition", "minors", "cq", "generators", "errors")
TAIL_BEYOND = 10  # the tail percentile leaves this many jobs of a round above it
MIN_ROUNDS = 3  # every job position runs at least this many times


def hash_seed(seed: int) -> str:
    return str(seed % 2**32)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def library():
    """The library's modules as one namespace; workloads call through it."""
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"hgdilute.{m}") for m in MODULES}
    )


def load_library():
    """Import hgdilute cold: drop any loaded copy, then import it again."""
    for name in [n for n in sys.modules if n == "hgdilute" or n.startswith("hgdilute.")]:
        del sys.modules[name]
    return library()


def set_up(workload_cls, seed: int, tiny: bool):
    """Median time of SETUP_REPS cold set-ups, each scaled to reference speed
    (see ``calibration``); returns it with the last set-up's objects."""
    scaler = calibration.Scaler()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = load_library()
        workload = workload_cls(lib, seed, tiny)
        first = workload.round(0)
        scaler.add(time.perf_counter() - t0)
    return statistics.median(scaler.scaled()), lib, workload, first


class Phase:
    """Every run of every job position of the round, over all rounds so far.

    Rounds have a fixed mix, so position i holds the same kind of job in every
    round, on fresh inputs.  Latencies are scaled to reference speed.
    """

    def __init__(self):
        self.samples: list[list[float]] = []  # [position][round] scaled latency
        self.failed_at: set[int] = set()
        self.failures: list[str] = []
        self.attempted = 0
        self.wrong = 0
        self.rounds = 0
        self.rss_mb = 0.0  # peak RSS after the first round
        self.wall_s = 0.0  # unscaled job time, for the log

    def add(self, results: list[tuple[float, float, str | None, bool]]) -> None:
        """Record one run of a round (see ``scaled_run``)."""
        if not self.samples:
            self.samples = [[] for _ in results]
        for i, (took, wall, why, wrong) in enumerate(results):
            self.samples[i].append(took)
            self.wall_s += wall
            if why is not None:
                self.failures.append(why)
                self.failed_at.add(i)
                self.wrong += wrong
        self.attempted += len(results)
        self.rounds += 1
        if self.rounds == 1:
            self.rss_mb = rss_mb()

    def latencies(self) -> list[float]:
        """Every job run's latency."""
        return [took for runs in self.samples for took in runs]

    def jobs_per_s(self) -> float:
        """Positions that never failed, per second of the positions' mean latencies."""
        means = [statistics.fmean(runs) for runs in self.samples]
        return (len(means) - len(self.failed_at)) / sum(means)


def run_job(job, lib, wrap=None) -> tuple[float, str | None, bool]:
    """Run one job: (latency, failure reason or None, whether the answer was wrong)."""
    t0 = time.perf_counter()
    wrong = False
    try:
        why = wrap(job) if wrap else job()
    except (lib.errors.BudgetExceededError, lib.errors.LimitExceededError) as err:
        why = f"{type(err).__name__}: {err}"
    except Exception as err:  # any other exception is a wrong answer
        why, wrong = f"{type(err).__name__}: {err}", True
    else:
        wrong = why is not None
    return time.perf_counter() - t0, why, wrong


def run_round(jobs, lib, tracers) -> list[list[tuple[float, float, str | None, bool]]]:
    """Run the round once per entry of ``tracers`` (``None`` means untraced),
    every run from the certificate-cache state the round started with, so a
    traced and an untraced run of a round do the same work."""
    cache = lib.hypergraph.__dict__.get("_cert_cache")
    snapshot = dict(cache) if isinstance(cache, dict) and len(tracers) > 1 else None
    runs = []
    for i, tracer in enumerate(tracers):
        if i and snapshot is not None:
            cache.clear()
            cache.update(snapshot)
        if tracer is None:
            runs.append(scaled_run(jobs, lib))
            continue
        tracer.install()
        try:
            runs.append(scaled_run(jobs, lib, tracer.job))
        finally:
            tracer.uninstall()
    return runs


def scaled_run(jobs, lib, wrap=None) -> list[tuple[float, float, str | None, bool]]:
    """Run the jobs once, with reference-kernel samples between them:
    (scaled latency, wall latency, failure reason, wrong) per job."""
    scaler = calibration.Scaler()
    results = []
    for job in jobs:
        took, why, wrong = run_job(job, lib, wrap)
        scaler.add(took)
        results.append((why, wrong))
    return [
        (scaled, wall, why, wrong)
        for scaled, wall, (why, wrong) in zip(scaler.scaled(), scaler.raw(), results)
    ]


def measure(workload, lib, jobs, seconds: float, tracers) -> dict:
    """Run round 0 (given as jobs), then later rounds, until at least
    MIN_ROUNDS rounds and ``seconds`` of job time have passed; one Phase per
    entry of ``tracers``.

    Only whole rounds run, so every phase holds an exact multiple of the
    workload's mix.  Drawing a round's inputs is not timed.
    """
    phases = {t: Phase() for t in tracers}
    elapsed, k = 0.0, 0
    while True:
        for tracer, results in zip(tracers, run_round(jobs, lib, tracers)):
            phases[tracer].add(results)
            elapsed += sum(wall for _, wall, _, _ in results)
        k += 1
        if k >= MIN_ROUNDS and elapsed >= seconds:
            return phases
        jobs = workload.round(k)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(latencies: list[float], round_size: int) -> tuple[float, float]:
    """(value, percentile) over every job run, at the highest percentile that
    leaves TAIL_BEYOND of a round's jobs above it.

    Fixing the percentile by the round rather than by the number of runs keeps
    it the same however many rounds a run makes, and leaves TAIL_BEYOND runs
    per round above it, so that one slow relabelling does not move it.
    """
    lat = sorted(latencies)
    if round_size <= TAIL_BEYOND:  # no such percentile: report the slowest job
        return lat[-1], 100.0
    share = (round_size - TAIL_BEYOND) / round_size
    return lat[math.ceil(share * len(lat)) - 1], 100.0 * share


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "hgdilute" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    want = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]], env)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    setup_s, lib, workload, jobs = set_up(WORKLOADS[args.workload], args.seed, args.tiny)
    print(
        f"workload {args.workload} seed {args.seed} PYTHONHASHSEED={want} "
        f"trace={args.trace} setup_reps={SETUP_REPS}"
    )
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        phases = measure(workload, lib, jobs, args.seconds, [None, tracer])
        rate, plain_rate = phases[tracer].jobs_per_s(), phases[None].jobs_per_s()
        metrics = {}
        for name, value in tracer.summary().items():
            unit = "count" if name.endswith(".calls") else "s" if name.endswith(".self_s") else "ratio"
            metrics[name] = (value, unit)
        cache = lib.hypergraph.__dict__.get("_cert_cache", ())
        metrics["hypergraph.cert_cache.entries"] = (len(cache), "count")
        metrics["trace.jobs_per_s"] = (rate, "1/s")
        metrics["trace.overhead"] = (1 - rate / plain_rate, "ratio")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write_spans(spans)
        print(f"untraced {plain_rate:.4f} jobs/s, traced {rate:.4f} jobs/s")
        print(f"spans written to {spans.relative_to(HERE.parent)}")
    else:
        phases = measure(workload, lib, jobs, args.seconds, [None])
        phase = phases[None]
        lat = phase.latencies()
        value, pct = tail(lat, len(phase.samples))
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (phase.jobs_per_s(), "1/s"),
            "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "job_tail_ms": (value * 1e3, "ms"),
            "peak_rss_mb": (phase.rss_mb, "MB"),
        }
        print(
            f"job_p50_ms and job_tail_ms are over all {len(lat)} job runs "
            f"({len(phase.samples)} a round, {phase.rounds} rounds); job_tail_ms is p{pct:.2f}"
        )
        print(
            f"unscaled: {phase.attempted / phase.wall_s:.4f} jobs/s over "
            f"{phase.wall_s:.2f} s of job time; scaled: {phase.jobs_per_s():.4f} jobs/s"
        )

    attempted = sum(p.attempted for p in phases.values())
    failures = [f for p in phases.values() for f in p.failures]
    wrong = sum(p.wrong for p in phases.values())
    print(
        f"rounds {'+'.join(str(p.rounds) for p in phases.values())} jobs {attempted} "
        f"failed {len(failures)} error_rate {len(failures) / attempted:.6f}"
    )
    for why in sorted(set(failures))[:10]:
        print(f"failure: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
