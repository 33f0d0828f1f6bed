"""Command-line front end.

Subcommands:
  test       run one test on a data file (one value per line)
  simulate   run a power study from a config file
  calibrate  compute and cache a KS critical value for the regression test
  tables     reproduce a bundled reference table (a1..a6)

simulate and tables run their study through one runner (_run_study).
Exit codes for `test`: 0 = null not rejected, 1 = rejected, 2 = usage or
input error.  Other subcommands: 0 on success, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .harness import (
    CSV_HEADER,
    DEFAULT_SEED,
    PowerStudyConfig,
    emit_power_csv,
    emit_power_svg,
    load_config,
    power_csv_line,
    run_power_study,
)
from .kstest import CalibrationCache, ks_critical_simple, lilliefors_critical, run_ks_test
from .moments import MomentConstraint, null_constraint, run_et_test, sinc_kernel, standardize
from .regression import DEFAULT_MODEL, LinearModelSpec
from .results import TestResult
from .sampling import Cauchy, Normal, cdf
from .tables import TABLE_NAMES, reference_value, table_config

SEED_ENV_VAR = "ENTROPYGOF_SEED"

# --null choices with a distribution; --mu and --sigma are its location and scale
_NULLS = {"normal": Normal, "cauchy": Cauchy}

USAGE_ERROR = 2


class CliError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def read_data_file(path: str | Path) -> list[float]:
    """One finite numeric value per line; '#' comments and blank lines ignored."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"data file not found: {p}")
    values: list[float] = []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CliError(f"{p}:{lineno}: not a finite number: {line!r}")
        values.append(value)
    if len(values) < 2:
        raise CliError(f"{p}: need at least 2 data values, found {len(values)}")
    return values


def _print_report(result: TestResult, n: int) -> None:
    print(f"n: {n}")
    for line in result.report_lines():
        print(line)


def _cmd_test(args: argparse.Namespace) -> int:
    data = read_data_file(args.data)
    n = len(data)
    if args.null == "custom-cf-integral":
        if args.method == "ks":
            raise CliError("the ks method needs a full CDF; use --null normal or cauchy")
        if args.cf_integral is None:
            raise CliError("--null custom-cf-integral requires --cf-integral VALUE")
        # a named null checks its own parameters; these go straight into the test
        for flag, value in (("--mu", args.mu), ("--sigma", args.sigma), ("--cf-integral", args.cf_integral)):
            if not math.isfinite(value):
                raise CliError(f"{flag} must be finite, got {value}")
        loc, scale = args.mu, args.sigma
        constraint = MomentConstraint(kernel=sinc_kernel, target=args.cf_integral, label="cf-custom")
    else:
        null = _NULLS[args.null](args.mu, args.sigma)
        loc, scale, constraint = null_constraint(null)
    if args.method == "et":
        result = run_et_test(standardize(data, loc, scale), constraint, alpha=args.alpha)
    else:
        result = run_ks_test(data, partial(cdf, null), ks_critical_simple(n, args.alpha))
    _print_report(result, n)
    return 1 if result.reject else 0


def _progress_printer(row) -> None:
    print(
        f"done: {row.alternative:>20s}  n={row.n:<5d} power={row.power:.4f} "
        f"(se {row.se:.4f})",
        file=sys.stderr,
    )


def _resolve_config(text: str):
    """A config-file path, or a bundled preset name like 'table_a1' or 'a1'."""
    path = Path(text)
    if path.exists():
        return load_config(path)
    name = text.lower().removeprefix("table_")
    if name in TABLE_NAMES:
        return table_config(name)
    raise CliError(f"config file not found (and not a bundled preset name): {text}")


def _run_study(config: PowerStudyConfig, args: argparse.Namespace):
    """The study of simulate and tables, once the directories of --out and
    --svg exist: --workers, --cache and the progress lines unless --quiet."""
    for path in (args.out, getattr(args, "svg", None)):
        if path is not None and not Path(path).parent.is_dir():
            raise CliError(f"cannot write {path}: directory {Path(path).parent} does not exist")
    cache = CalibrationCache(args.cache) if args.cache else None
    return run_power_study(
        config, workers=args.workers, cache=cache,
        progress=_progress_printer if not args.quiet else None,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    table = _run_study(config, args)
    emit_power_csv(table, args.out)
    print(f"wrote {args.out}")
    if args.svg:
        emit_power_svg(table, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise CliError(f"--k must be at least 1, got {args.k}")
    # the critical depends on the model through k alone (lilliefors_critical)
    model = LinearModelSpec(beta=(0.0,) * args.k, sigma2=1.0)
    cache = CalibrationCache(args.cache) if args.cache else None
    critical = lilliefors_critical(
        model, args.n, args.alpha, args.trials, args.seed if args.seed is not None else _default_seed(),
        cache,
    )
    print(f"n: {args.n}")
    print(f"alpha: {args.alpha:g}")
    print(f"trials: {args.trials}")
    print(f"critical: {critical:.6g}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    table = _run_study(table_config(args.which, trials=args.trials, master_seed=seed), args)
    lines = [f"{CSV_HEADER},reference"]
    for row in table.rows:
        lines.append(f"{power_csv_line(row)},{reference_value(args.which, row.alternative, row.n):.6g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropygof",
        description="Entropy-based and Kolmogorov-Smirnov goodness-of-fit testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a data file against a simple null")
    p_test.add_argument("data", help="file with one numeric value per line ('#' comments ok)")
    p_test.add_argument("--null", choices=("normal", "cauchy", "custom-cf-integral"), default="normal")
    p_test.add_argument("--mu", type=float, default=0.0, help="null location (data are standardized by it)")
    p_test.add_argument("--sigma", type=float, default=1.0, help="null scale (must be > 0)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--method", choices=("et", "ks"), default="et")
    p_test.add_argument(
        "--cf-integral", type=float, default=None,
        help="precomputed integral of the null CF over (-1, 1), for --null custom-cf-integral",
    )
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a power study from a config file")
    p_sim.add_argument("config", help="flat key-value config file, or a bundled preset (table_a1..table_a6)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--svg", default=None, help="optional output SVG path")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=None, help="override the config's master_seed")
    p_sim.add_argument("--cache", default=None, help="calibration cache file for ks-regression")
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="calibrate a KS critical value for the regression test")
    p_cal.add_argument("--n", type=int, required=True)
    p_cal.add_argument("--alpha", type=float, default=0.05)
    p_cal.add_argument("--trials", type=int, default=PowerStudyConfig.lilliefors_trials)
    p_cal.add_argument("--seed", type=int, default=None)
    p_cal.add_argument("--k", type=int, default=DEFAULT_MODEL.k, help="coefficients of the design, intercept included")
    p_cal.add_argument("--cache", default=None, help="calibration cache file to read/update")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_tab = sub.add_parser("tables", help="reproduce a bundled reference table")
    p_tab.add_argument("which", help="one of: " + ", ".join(TABLE_NAMES))
    p_tab.add_argument("--trials", type=int, default=PowerStudyConfig.trials)
    p_tab.add_argument("--seed", type=int, default=None)
    p_tab.add_argument("--out", default=None, help="output CSV path (stdout if omitted)")
    p_tab.add_argument("--workers", type=int, default=1)
    p_tab.add_argument("--cache", default=None)
    p_tab.add_argument("--quiet", action="store_true")
    p_tab.set_defaults(func=_cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
