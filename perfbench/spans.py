"""In-memory span recorder for the traced pass, and the per-layer summary
computed from its spans.

A span is one call into a layer's public function, timed from outside the
package by a wrapper installed where the caller binds the function.  Spans
nest through a call stack, so each records its parent; the sample size n
is inherited from the nearest enclosing span that sets it (a trial chunk
or a calibration trial).  Self time is a span's duration minus the part of
that interval its child spans cover.

This module imports nothing from entropygof: the recorder is installed by
study.py, and run.py summarizes the written spans.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

# Self time of these spans is booked to another metric's layer.
SELF_LAYER = {
    "harness.study": "harness",
    "harness.chunk": "harness",
    "kstest.calibration_trial": "kstest.calibration",
    "kstest.cache_lookup": "kstest.calibration",
}
SELF_METRICS = (
    "sampling.stream",
    "sampling.draw",
    "numerics.normal_quantile",
    "numerics.normal_cdf",
    "moments.kernel",
    "maxent.solve",
    "kstest.statistic",
    "kstest.critical",
    "kstest.calibration",
    "regression.simulate",
    "regression.ols_fit",
    "regression.transform",
    "harness",
)
# span -> the sample sizes its per-call cost is reported at; the regression
# presets start at n = 50
SIMPLE_NS, REGRESSION_NS = (25, 100, 1000), (50, 100, 1000)
PER_CALL = {
    "sampling.stream": SIMPLE_NS,
    "sampling.draw": SIMPLE_NS,
    "moments.kernel": SIMPLE_NS,
    "maxent.solve": SIMPLE_NS,
    "kstest.statistic": SIMPLE_NS,
    "regression.ols_fit": REGRESSION_NS,
    "kstest.calibration_trial": REGRESSION_NS,
}
ROOT_SPAN = "harness.study"
# direct children of a study that run trials; the rest of a study's time is
# per-row and per-study preparation
TRIAL_SPANS = ("harness.chunk", "kstest.calibration")


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index, n] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, n_of=None, on_result=None):
        """A wrapper that records one span per call of fn.

        n_of(args) gives the sample size a span sets for its subtree;
        on_result(result) runs after the span closes, to update counts.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if n_of is not None:
                n = n_of(args)
            else:
                n = spans[parent][4] if parent >= 0 else 0
            record = [name, 0, 0, parent, n]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _covered_by_children(spans: list[list]) -> list[int]:
    """Per span, the length of the union of its children's intervals,
    each clipped to the parent's own interval."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, n in spans:
        if parent >= 0:
            children[parent].append((start, end))
    covered = [0] * len(spans)
    for parent, intervals in children.items():
        lo, hi = spans[parent][1], spans[parent][2]
        total, reach = 0, lo
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                total += end - start
                reach = end
        covered[parent] = total
    return covered


def summarize(dump: dict) -> dict:
    """Per-layer metrics of one traced pass, plus the accounting check.

    Returns {"metrics": {name: value}, "accounted_ns": int, "study_ns": int,
    "stray_roots": int, "prep_ns": int}.  accounted_ns, the sum of the layer
    self times (harness included), equals study_ns by construction as long
    as every span nests inside its parent and every root span is a study;
    it is an identity, not a measure of how much work the wrappers cover.
    prep_ns is study time outside trial chunks and calibration.
    """
    spans, counts = dump["spans"], Counter(dump["counts"])
    covered = _covered_by_children(spans)
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    per_call: dict[tuple[str, int], list[int]] = defaultdict(list)
    study_ns = stray_roots = trial_ns = 0
    for (name, start, end, parent, n), cov in zip(spans, covered):
        self_ns[SELF_LAYER.get(name, name)] += end - start - cov
        calls[name] += 1
        per_call[name, n].append(end - start)
        if name in TRIAL_SPANS and parent >= 0 and spans[parent][0] == ROOT_SPAN:
            trial_ns += end - start
        if parent < 0:
            if name == ROOT_SPAN:
                study_ns += end - start
            else:
                stray_roots += 1

    metrics: dict[str, float] = {f"{layer}.self_s": self_ns[layer] * 1e-9 for layer in SELF_METRICS}
    solves = calls["maxent.solve"]
    metrics.update(
        {
            "sampling.calls": calls["sampling.draw"],
            "maxent.solve.calls": solves,
            "maxent.iterations_per_solve": counts["maxent.iterations"] / solves if solves else 0.0,
            "maxent.infeasible_frac": counts["maxent.infeasible"] / solves if solves else 0.0,
            "kstest.calibration_trials": calls["kstest.calibration_trial"],
            "kstest.cache_hits": counts["kstest.cache_hits"],
            "kstest.cache_misses": counts["kstest.cache_misses"],
            "trace.study_s": study_ns * 1e-9,
        }
    )
    for name, ns in PER_CALL.items():
        for n in ns:
            durations = per_call.get((name, n))
            metrics[f"{name}.us_per_call.n{n}"] = statistics.fmean(durations) * 1e-3 if durations else 0.0
    return {
        "metrics": metrics,
        "accounted_ns": sum(self_ns.values()),
        "study_ns": study_ns,
        "stray_roots": stray_roots,
        "prep_ns": study_ns - trial_ns,
    }
