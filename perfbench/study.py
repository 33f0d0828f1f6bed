"""One benchmark pass: a workload's power studies in a fresh process.

    python3 perfbench/study.py --workload et-simple --seed 7 --out DIR [--workers N] [--trace]
    python3 perfbench/study.py --workload et-simple --seed 7 --out DIR --plan

Drives the public API the way a `tables` run does: table_config for each
preset of the workload, a cold CalibrationCache in DIR, run_power_study,
emit_power_csv to DIR/<preset>.csv.  Timings and counts go to
DIR/result.json; with --trace, the spans of every layer call go to
DIR/spans.json.  With --plan it stops where run_power_study would be
called and writes what each study will run (test kind, CSV rows, trials)
and the set-up time to DIR/plan.json.  run.py starts this script with
PYTHONPATH pointing at the checkout's src directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The trial counts keep each workload's mix of work close to a full-size
# study's (10^4 trials per row, 2 x 10^4 Lilliefors trials per n).  Fixed
# per-row costs (the critical value, the pool round trip) stay within about
# 2% of the study time, and regression keeps the 1:2 ratio of trials per row
# to calibration trials per n.  See README.md for the measurements.
WORKLOADS = {
    "et-simple": {"presets": ("a3",), "workers": 1, "trials": 100, "lilliefors_trials": 1000},
    "ks-simple": {"presets": ("a4",), "workers": 1, "trials": 1000, "lilliefors_trials": 1000},
    "regression": {"presets": ("a5", "a6"), "workers": 2, "trials": 500, "lilliefors_trials": 1000},
}


def install_tracer(tracer) -> None:
    """Wrap each layer's public functions where their callers bind them."""
    from entropygof import harness, kstest, moments, regression, sampling

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    def solved(solution):
        tracer.counts["maxent.iterations"] += solution.iterations
        tracer.counts["maxent.infeasible"] += not solution.converged

    def cache_lookup(critical):
        tracer.counts["kstest.cache_misses" if critical is None else "kstest.cache_hits"] += 1

    patch(harness, "_run_chunk", "harness.chunk", n_of=lambda args: args[0][2])
    patch(sampling.SeedSpec, "generator", "sampling.stream")
    patch(harness, "sample", "sampling.draw")
    patch(regression, "sample_using", "sampling.draw")
    patch(sampling, "normal_quantile", "numerics.normal_quantile")
    for module in (sampling, regression, harness):
        patch(module, "normal_cdf", "numerics.normal_cdf")
    patch(harness, "standardize", "moments.kernel")
    patch(moments.MomentConstraint, "values", "moments.kernel")
    patch(harness, "solve_maxent", "maxent.solve", on_result=solved)
    patch(harness, "ks_critical_simple", "kstest.critical")
    patch(harness, "ensure_lilliefors_table", "kstest.calibration")
    patch(regression, "null_trial_ks_distance", "kstest.calibration_trial", n_of=lambda args: args[1])
    patch(kstest.CalibrationCache, "get", "kstest.cache_lookup", on_result=cache_lookup)
    for module in (harness, regression):
        patch(module, "ks_statistic", "kstest.statistic")
        patch(module, "simulate_model", "regression.simulate")
        patch(module, "ols_fit", "regression.ols_fit")
        patch(module, "standardized_residuals", "regression.transform")
    patch(harness, "ratio_transform", "regression.transform")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, help="default: the workload's")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--plan", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workers = args.workers or workload["workers"]

    import entropygof as eg

    configs = {
        name: eg.table_config(
            name, trials=workload["trials"], master_seed=args.seed, lilliefors_trials=workload["lilliefors_trials"]
        )
        for name in workload["presets"]
    }
    # a ks-regression study calibrates every sample size before its rows run
    plan = {
        name: {
            "test": c.test,
            "rows": len(c.alternatives) * len(c.sample_sizes),
            "trials": c.trials,
            "calibration_trials": c.lilliefors_trials * len(c.sample_sizes) if c.test == "ks-regression" else 0,
        }
        for name, c in configs.items()
    }
    cache = eg.CalibrationCache(args.out / "calibration.txt")
    if args.plan:
        setup_s = time.perf_counter() - T_START
        (args.out / "plan.json").write_text(json.dumps({"studies": plan, "setup_s": setup_s}))
        return
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        install_tracer(tracer)
        run_study = tracer.wrap("harness.study", eg.run_power_study)
    else:
        run_study = eg.run_power_study
    setup_s = time.perf_counter() - T_START

    studies = []
    for name, config in configs.items():
        ticks: list[float] = []
        rows = []

        def progress(row):
            ticks.append(time.perf_counter())
            rows.append((row.n, row.trials, row.failures))

        start = time.perf_counter()
        table = run_study(config, workers=workers, cache=cache, progress=progress)
        study_s = time.perf_counter() - start
        eg.emit_power_csv(table, args.out / f"{name}.csv")
        studies.append(
            {
                "preset": name,
                "study_s": study_s,
                "trials": sum(r[1] for r in rows) + plan[name]["calibration_trials"],
                "failures": sum(r[2] for r in rows),
                # (n, trials, seconds) per row after the first, whose interval
                # also holds the study's preparation
                "rows": [(n, t, b - a) for (n, t, _), a, b in zip(rows[1:], ticks, ticks[1:])],
            }
        )
    wall_s = time.perf_counter() - T_START

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "studies": studies,
        "package": eg.__file__,
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        (args.out / "spans.json").write_text(json.dumps(tracer.dump()))
    (args.out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
