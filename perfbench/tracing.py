"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each listed function by a recording wrapper in
every ``hgdilute`` module that holds it, including the modules that imported
it by name, so calls between modules are seen too; ``uninstall`` puts the
originals back.  No file of the library changes.

Spans live in flat arrays (name id, parent index, start, end); a job is a
root span, so the spans of one job share its index as their root.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

TRACED = {
    "hypergraph": ["canonical_form", "isomorphic", "dual_with_map", "is_connected"],
    "dilution": [
        "apply_step",
        "valid_steps",
        "reachable_dilutions",
        "search_dilution",
        "verify_dilution",
    ],
    "decomposition": [
        "exact_treewidth",
        "exact_ghw",
        "min_edge_cover",
        "validate_td",
        "validate_ghd",
    ],
    "minors": ["find_minor", "find_grid_minor", "jigsaw_from_grid_minor"],
    "cq": ["evaluate", "count", "reduce_along_dilution"],
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
JOB = "job"


class Tracer:
    def __init__(self):
        self.names = [JOB] + FUNCTIONS
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # result-derived counters for the ratio metrics
        self.reach_states = 0
        self.minor_hits = 0
        self.db_in = 0
        self.db_out = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def job(self, fn):
        """Run one job under a root span."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name: str, orig):
        name_id = self.name_id[name]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = orig.__name__
        return wrapper

    def _observe_dilution_reachable_dilutions(self, args, result):
        self.reach_states += len(result)

    def _observe_minors_find_minor(self, args, result):
        self.minor_hits += result is not None

    def _observe_cq_reduce_along_dilution(self, args, result):
        self.db_in += args[1].size()
        self.db_out += result.database.size()

    def install(self) -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "hgdilute" or n.startswith("hgdilute."))
        ]
        for name in FUNCTIONS:
            mod, fn = name.split(".")
            orig = getattr(sys.modules[f"hgdilute.{mod}"], fn)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

    def summary(self) -> dict[str, float]:
        """Per function calls and self time per job, plus the ratio metrics."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += dur[i] - child[i]
        jobs = max(calls[0], 1)
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[self.name_id[name]] / jobs
            out[f"{name}.self_s"] = self_s[self.name_id[name]] / jobs
        out["job.self_s"] = self_s[0] / jobs

        reach_id = self.name_id["dilution.reachable_dilutions"]
        step_id = self.name_id["dilution.apply_step"]
        steps_under_reach = 0
        for i in range(n):
            if self.span_name[i] == step_id:
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] != reach_id:
                    p = self.span_parent[p]
                steps_under_reach += p >= 0

        def ratio(a, b):
            return a / b if b else 0.0

        out["dilution.reachable_dilutions.new_state_ratio"] = ratio(
            self.reach_states, steps_under_reach
        )
        out["minors.find_minor.hit_ratio"] = ratio(
            self.minor_hits, calls[self.name_id["minors.find_minor"]]
        )
        out["decomposition.min_edge_cover.per_ghw"] = ratio(
            calls[self.name_id["decomposition.min_edge_cover"]],
            calls[self.name_id["decomposition.exact_ghw"]],
        )
        out["cq.reduce_along_dilution.db_growth"] = ratio(self.db_out, self.db_in)
        return out
