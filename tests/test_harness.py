import hashlib
import importlib
import json
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entropygof.harness as hz
import entropygof.kstest as ks
import entropygof.sampling as sampling
from entropygof.kstest import run_ks_test
from entropygof.moments import null_constraint, run_et_test, standardize
from entropygof.regression import (
    DEFAULT_MODEL,
    DegenerateTrialError,
    LinearModelSpec,
    null_trial_ks_distance,
    run_regression_et,
    run_regression_ks,
    simulate_model,
)
from entropygof.sampling import (
    ARProcess,
    Cauchy,
    CenteredLogNormal,
    Exponential,
    MAProcess,
    Normal,
    SeedSpec,
    StudentT,
    Uniform,
    cdf,
    sample,
)
from entropygof.tables import table_config


def small_config(**kw):
    base = dict(
        test="et-simple",
        alternatives=(Normal(0, 1), Normal(0.8, 1)),
        sample_sizes=(25, 50),
        trials=400,
        master_seed=111,
    )
    base.update(kw)
    return hz.PowerStudyConfig(**base)


class TestConfigValidation:
    def test_bad_test_kind(self):
        with pytest.raises(ValueError):
            small_config(test="anderson")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            small_config(alpha=0.0)

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            small_config(trials=99)

    def test_empty_alternatives(self):
        with pytest.raises(ValueError):
            small_config(alternatives=())

    def test_regression_needs_model(self):
        with pytest.raises(ValueError):
            small_config(test="et-regression")

    def test_regression_min_n(self):
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        with pytest.raises(ValueError):
            small_config(test="et-regression", null_spec=model, sample_sizes=(2,))

    def test_simple_rejects_model_null(self):
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        with pytest.raises(ValueError):
            small_config(null_spec=model)

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_master_seed_outside_u64(self, master_seed):
        with pytest.raises(ValueError, match="master_seed"):
            small_config(master_seed=master_seed)

    @pytest.mark.parametrize("master_seed", [2.5, math.nan, "7"])
    def test_master_seed_not_an_integer(self, master_seed):
        # 2.5 would be truncated to the streams of master seed 2
        with pytest.raises(ValueError, match=f"master_seed must be an unsigned 64-bit integer, got {master_seed!r}"):
            small_config(master_seed=master_seed)

    @pytest.mark.parametrize("field", ["trials", "lilliefors_trials"])
    def test_trials_fit_a_row_of_streams(self, field):
        # row r owns streams r * 2**32, ..., r * 2**32 + 2**32 - 1; no trial runs here
        with pytest.raises(ValueError, match=rf"{field} = 4294967301 exceeds 2\*\*32.*sampling.first_stream"):
            small_config(**{field: 2**32 + 5})
        assert getattr(small_config(**{field: 2**32}), field) == 2**32

    @pytest.mark.parametrize("field", ["trials", "lilliefors_trials"])
    @pytest.mark.parametrize(
        "value", [400.5, 1000.0, True, np.float64(1000.0)], ids=["400.5", "1000.0", "True", "np.float64"]
    )
    def test_trials_not_an_integer(self, field, value):
        # trials = 400.5 ran 400 trials and wrote 400.5 in the CSV's trials column
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            small_config(**{field: value})
        assert getattr(small_config(**{field: np.int64(1000)}), field) == 1000

    @pytest.mark.parametrize("n", [25.5, 25.0, True])
    def test_sample_size_not_an_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"sample_sizes entry must be an integer, got {n!r}")):
            small_config(sample_sizes=(50, n))

    @pytest.mark.parametrize("workers", [1.5, 2.0, True])
    def test_workers_not_an_integer(self, workers):
        # checked before the critical values are taken or the pool starts
        with pytest.raises(ValueError, match=re.escape(f"workers must be an integer, got {workers!r}")):
            hz.run_power_study(small_config(), workers=workers)

    @pytest.mark.parametrize("test", ["et-regression", "ks-regression"])
    def test_regression_needs_more_observations_than_coefficients(self, test):
        # n = k = 4 built, then failed inside the study: in simulate_model
        # (et-regression) or in the calibration (ks-regression)
        model = LinearModelSpec((1.0, 2.0, 3.0, 4.0), 1.0)
        with pytest.raises(ValueError, match=re.escape(f"{test} needs sample sizes > k = 4")):
            small_config(test=test, sample_sizes=(50, 4), null_spec=model)
        assert small_config(test=test, sample_sizes=(5,), null_spec=model).sample_sizes == (5,)

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
    def test_label_breaks_csv_row(self, label):
        # checked when the config is built, before any trial runs
        with pytest.raises(ValueError, match="may not contain commas or line breaks"):
            small_config(labels=(label, "ok"))

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            small_config(labels=("only-one",))

    def test_et_simple_null_must_be_normal_or_cauchy(self):
        # checked when the config is built, not when the study starts
        for null in (Uniform(0, 1), Exponential(), StudentT(3), ARProcess((0.5,))):
            with pytest.raises(ValueError, match="et-simple takes a null of type Normal, Cauchy"):
                small_config(null_spec=null)
        assert small_config(null_spec=Cauchy(1.0, 2.0)).null_spec == Cauchy(1.0, 2.0)

    def test_ks_simple_null_needs_cdf(self):
        with pytest.raises(ValueError, match="null"):
            small_config(test="ks-simple", null_spec=ARProcess((0.5,)))

    def test_simple_rejects_model_alternative(self):
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        with pytest.raises(ValueError, match="alternatives"):
            small_config(alternatives=(Normal(0, 1), model))

    def test_et_simple_min_n(self):
        with pytest.raises(ValueError, match="sample sizes"):
            small_config(sample_sizes=(1, 25))

    def test_repeated_sample_sizes(self):
        # two rows with one (alternative, n) key would report different results
        with pytest.raises(ValueError, match=r"sample sizes repeat in \(25, 50, 25\)"):
            small_config(sample_sizes=(25, 50, 25))

    def test_shared_row_labels(self):
        # an AR label omits the innovation, so these two rows would share one
        alternatives = (ARProcess((0.5,), Normal(0, 2)), ARProcess((0.5,), StudentT(3)))
        with pytest.raises(ValueError, match=r"row labels \['ar:0.5'\]; give distinct labels"):
            small_config(alternatives=alternatives)
        with pytest.raises(ValueError, match="row labels"):
            small_config(labels=("same", "same"))
        assert small_config(alternatives=alternatives, labels=("normal", "t3")).row_label(1) == "t3"


class TestRunPowerStudy:
    def test_deterministic_across_workers(self):
        cfg = small_config()
        t1 = hz.run_power_study(cfg, workers=1)
        t2 = hz.run_power_study(cfg, workers=2)
        assert [(r.alternative, r.n, r.rejections, r.failures) for r in t1.rows] == [
            (r.alternative, r.n, r.rejections, r.failures) for r in t2.rows
        ]

    def test_deterministic_across_runs(self):
        cfg = small_config()
        a = hz.run_power_study(cfg)
        b = hz.run_power_study(cfg)
        assert [r.rejections for r in a.rows] == [r.rejections for r in b.rows]

    def test_seed_changes_output(self):
        a = hz.run_power_study(small_config())
        b = hz.run_power_study(small_config(master_seed=112))
        assert [r.rejections for r in a.rows] != [r.rejections for r in b.rows]

    def test_row_order_and_fields(self):
        cfg = small_config(labels=("null", "shifted"))
        table = hz.run_power_study(cfg)
        assert [(r.alternative, r.n) for r in table.rows] == [
            ("null", 25),
            ("null", 50),
            ("shifted", 25),
            ("shifted", 50),
        ]
        for r in table.rows:
            assert 0.0 <= r.power <= 1.0
            assert r.se == pytest.approx(math.sqrt(r.power * (1 - r.power) / r.trials))

    def test_power_monotone_in_n(self):
        cfg = hz.PowerStudyConfig(
            test="et-simple",
            alternatives=(Normal(0.8, 1),),
            sample_sizes=(25, 50, 100),
            trials=2000,
            master_seed=113,
        )
        rows = hz.run_power_study(cfg).rows
        for a, b in zip(rows, rows[1:]):
            slack = 2.0 * math.sqrt(a.se**2 + b.se**2)
            assert b.power >= a.power - slack

    def test_size_consistency_large_n(self):
        cfg = hz.PowerStudyConfig(
            test="et-simple",
            alternatives=(Normal(0, 1),),
            sample_sizes=(500,),
            trials=2000,
            master_seed=114,
        )
        row = hz.run_power_study(cfg).rows[0]
        assert abs(row.power - 0.05) <= 3.0 * max(row.se, 1e-9) + 1e-9

    def test_ks_simple_study(self):
        cfg = hz.PowerStudyConfig(
            test="ks-simple",
            alternatives=(Normal(0, 1), Cauchy(0, 1)),
            sample_sizes=(100,),
            trials=500,
            master_seed=115,
        )
        rows = hz.run_power_study(cfg).rows
        assert rows[0].power == pytest.approx(0.05, abs=0.03)
        assert rows[1].power > 0.7

    def test_regression_studies(self, tmp_path):
        model = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
        walk = ARProcess((1.0,), Normal(0, 2))
        cfg = hz.PowerStudyConfig(
            test="et-regression",
            alternatives=(Normal(0, 2), walk),
            sample_sizes=(50,),
            trials=400,
            master_seed=116,
            null_spec=model,
        )
        rows = hz.run_power_study(cfg).rows
        assert rows[0].power == pytest.approx(0.06, abs=0.04)
        assert rows[1].power > 0.9
        cfg_ks = hz.PowerStudyConfig(
            test="ks-regression",
            alternatives=(Normal(0, 2),),
            sample_sizes=(50,),
            trials=400,
            master_seed=116,
            null_spec=model,
            lilliefors_trials=2000,
        )
        cache = hz.CalibrationCache(tmp_path / "cal.txt")
        rows = hz.run_power_study(cfg_ks, cache=cache).rows
        assert rows[0].power == pytest.approx(0.05, abs=0.04)
        assert (tmp_path / "cal.txt").exists()

    def test_failure_budget_enforced(self, monkeypatch):
        def explode(*args, **kwargs):
            raise DegenerateTrialError("boom")

        kind = hz.TEST_KINDS["et-simple"]
        monkeypatch.setitem(hz.TEST_KINDS, "et-simple", replace(kind, statistic=explode))
        with pytest.raises(RuntimeError, match="0.1%"):
            hz.run_power_study(small_config())

    def test_bug_in_statistic_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a degenerate trial")

        kind = hz.TEST_KINDS["et-simple"]
        monkeypatch.setitem(hz.TEST_KINDS, "et-simple", replace(kind, statistic=broken))
        with pytest.raises(TypeError, match="a bug"):
            hz.run_power_study(small_config())

    def test_degenerate_trials_counted_one_by_one(self, monkeypatch):
        kind = hz.TEST_KINDS["ks-simple"]

        def flaky(context, alt, n, seed, trials):
            # trial 17 of every row is degenerate; it spoils any block holding it
            if any((seed.stream_id + b) % (1 << 32) == 17 for b in range(trials)):
                raise DegenerateTrialError("zero denominator")
            return kind.statistic(context, alt, n, seed, trials)

        monkeypatch.setitem(hz.TEST_KINDS, "ks-simple", replace(kind, statistic=flaky))
        cfg = small_config(test="ks-simple", trials=1000, sample_sizes=(25,))
        blocked = hz.run_power_study(cfg).rows
        monkeypatch.setattr(sampling, "_BLOCK_WORDS", 1)
        assert hz.run_power_study(cfg).rows == blocked
        assert [r.failures for r in blocked] == [1, 1]

    def test_spoiled_block_runs_again_in_halves(self):
        calls = []

        def statistic(context, alt, n, seed, trials):
            calls.append(trials)
            streams = range(seed.stream_id, seed.stream_id + trials)
            if 300 in streams:
                raise DegenerateTrialError("flat design")
            return np.array(streams, dtype=float)

        stats = hz._block_statistics(statistic, None, Normal(), 25, SeedSpec(1, 0), 655)
        assert np.flatnonzero(np.isnan(stats)).tolist() == [300]
        assert np.delete(stats, 300).tolist() == [t for t in range(655) if t != 300]
        # one call per block, then two per halving: 21 here, where single trials took 656
        assert len(calls) <= 1 + 2 * math.ceil(math.log2(655))

    @pytest.mark.parametrize("test", ["et-simple", "ks-simple", "et-regression", "ks-regression"])
    def test_block_size_does_not_change_rows(self, monkeypatch, test):
        alternatives = (Normal(0, 1), StudentT(3, 1.0), Cauchy(0, 1))
        kw = {}
        if hz.TEST_KINDS[test].regression:
            alternatives += (ARProcess((0.5,), Normal(0, 2)),)
            kw = dict(null_spec=LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0), lilliefors_trials=1000)
        cfg = small_config(test=test, alternatives=alternatives, sample_sizes=(25, 100), trials=300, **kw)
        blocked = hz.run_power_study(cfg).rows
        monkeypatch.setattr(sampling, "_BLOCK_WORDS", 1)
        assert hz.run_power_study(cfg).rows == blocked

    @pytest.mark.parametrize("test", ["et-regression", "ks-regression"])
    @pytest.mark.parametrize("rho, n", [((2.0,), 1000), ((1000.0,), 50), ((1.5,), 1000)])
    def test_overflowing_error_process_named(self, monkeypatch, test, rho, n):
        # both sizes step the AR recursion over time (blocks of up to 62 rows
        # at n = 1000); test_regression's test_overflow_names_innovation runs it
        # row by row.  AR(1.5) at n = 1000 stays finite, near 1e193, but its
        # residual sum of squares would overflow the fit.  The first row raises
        # before the study calibrates.
        def no_calibration(*args):
            raise AssertionError("calibrated before the first row was decided")

        monkeypatch.setattr(hz, "ensure_lilliefors_table", no_calibration)
        cfg = small_config(
            test=test,
            alternatives=(ARProcess(rho, Normal(0, 2)),),
            sample_sizes=(n,),
            trials=100,
            null_spec=LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0),
            lilliefors_trials=1000,
        )
        # AR(1.5)'s finite values are named by the bound they pass, sqrt(DBL_MAX / 1000) / 2
        gave = r"values past sqrt\(DBL_MAX / n\) / 2 = 2.12e\+152" if rho == (1.5,) else "non-finite values"
        with pytest.raises(ValueError, match=f"error process ar:{rho[0]:g} gave {gave} at n = {n}"):
            hz.run_power_study(cfg)

    @pytest.mark.parametrize("test", ["et-regression", "ks-regression"])
    def test_degenerate_regression_trial_counted_once(self, monkeypatch, test):
        simulate = hz.simulate_model

        def one_flat_design(model, n, seed, error_process=None, trials=None):
            # trial 17 of every row gets a design with two intercept columns
            y, X = simulate(model, n, seed, error_process, trials)
            for b in range(1 if trials is None else trials):
                if (seed.stream_id + b) % (1 << 32) == 17:
                    X.reshape(-1, n, model.k)[b, :, 1] = 1.0
            return y, X

        monkeypatch.setattr(hz, "simulate_model", one_flat_design)
        cfg = small_config(
            test=test,
            alternatives=(Normal(0, 2),),
            sample_sizes=(50,),
            trials=1000,
            null_spec=LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0),
            lilliefors_trials=1000,
        )
        blocked = hz.run_power_study(cfg).rows
        assert [r.failures for r in blocked] == [1]
        monkeypatch.setattr(sampling, "_BLOCK_WORDS", 1)
        assert hz.run_power_study(cfg).rows == blocked

    def test_progress_hook(self):
        seen = []
        hz.run_power_study(small_config(sample_sizes=(25,)), progress=seen.append)
        assert len(seen) == 2
        assert all(isinstance(r, hz.PowerRow) for r in seen)


def _block_lengths(monkeypatch, test, alt, n, context, trials=4000):
    """The trials per block of one chunk, seen by a stub statistic."""
    lengths = []

    def stub(context, alt, n, seed, trials):
        lengths.append(trials)
        return np.zeros(trials)

    monkeypatch.setitem(hz.TEST_KINDS, test, replace(hz.TEST_KINDS[test], statistic=stub))
    hz._run_chunk((test, alt, n, 1, 0, trials, context))
    return lengths


class TestBlockWords:
    @pytest.mark.parametrize("n", [25, 100, 1000])
    def test_blocks_sized_by_words_drawn(self, monkeypatch, n):
        # a t(3) trial draws 4 n words, a normal trial n
        normal = max(_block_lengths(monkeypatch, "ks-simple", Normal(), n, None))
        t3 = max(_block_lengths(monkeypatch, "ks-simple", StudentT(3), n, None))
        assert 4 * t3 <= normal
        assert normal * n <= sampling._BLOCK_WORDS and t3 * 4 * n <= sampling._BLOCK_WORDS

    def test_calibration_blocks_count_k_n_words(self, monkeypatch):
        seen = []
        blocks = ks.seed_blocks

        def recording(master_seed, first, stop, words, spec):
            seen.append((words, spec))
            return blocks(master_seed, first, stop, words, spec)

        monkeypatch.setattr(ks, "seed_blocks", recording)
        model = LinearModelSpec(beta=(1.0, 5.0, -2.0), sigma2=4.0)
        ks.lilliefors_critical(model, 40, 0.05, 1000, 9)
        # calibration trials draw N(0, 1) errors, so their blocks keep the plain budget
        assert seen == [(3 * 40, Normal(0.0, 1.0))]

    @pytest.mark.parametrize("test", ["et-regression", "ks-regression"])
    def test_preset_ar_paths(self, monkeypatch, test):
        # every block of the a5/a6 stepping AR alternatives steps over time at
        # every preset n; only a chunk's last block may be narrower
        cfg = table_config("a5" if test == "et-regression" else "a6")
        stepping = [alt for alt in cfg.alternatives if isinstance(alt, ARProcess) and not alt.is_random_walk]
        assert stepping
        for alt in stepping:
            for n in cfg.sample_sizes:
                lengths = _block_lengths(monkeypatch, test, alt, n, hz.TEST_KINDS[test].context(cfg, n, None))
                assert len(lengths) > 1 and min(lengths[:-1]) >= sampling._AR_STEP_ROWS, (alt, n, lengths)


_PIN_MODEL = LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0)
_PIN_REG_ALTS = (Normal(0, 2), ARProcess((0.5,), Normal(0, 2)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "test,kw,rejections",
    [
        pytest.param(
            "et-simple",
            dict(alternatives=(Normal(0, 1), StudentT(3, 1.0)), sample_sizes=(25, 100)),
            [16, 12, 65, 171],
            id="et-simple",
        ),
        pytest.param(
            "ks-simple",
            dict(alternatives=(Normal(0, 1), Cauchy(0, 1)), sample_sizes=(25, 100)),
            [7, 7, 43, 169],
            id="ks-simple",
        ),
        pytest.param(
            "et-regression",
            dict(alternatives=_PIN_REG_ALTS, sample_sizes=(50, 100), null_spec=_PIN_MODEL),
            [15, 19, 61, 106],
            id="et-regression",
        ),
        pytest.param(
            "ks-regression",
            dict(alternatives=_PIN_REG_ALTS, sample_sizes=(50, 100), null_spec=_PIN_MODEL),
            [10, 15, 13, 9],
            id="ks-regression",
        ),
    ],
)
def test_pinned_rejection_counts(test, kw, rejections, workers):
    """Exact counts of a tiny study per test kind, fixed by the stream layout."""
    cfg = hz.PowerStudyConfig(test=test, trials=200, master_seed=2024, lilliefors_trials=1000, **kw)
    rows = hz.run_power_study(cfg, workers=workers).rows
    assert [r.rejections for r in rows] == rejections
    assert [r.failures for r in rows] == [0, 0, 0, 0]


_SIMPLE_ALTS = (Normal(0.0, 1.0), StudentT(3), Cauchy(0.0, 1.0), Exponential(1.0, -1.0))
_REGRESSION_ALTS = (*_SIMPLE_ALTS, ARProcess((0.5,), Normal(0.0, 2.0)))


def _library_statistic(test: str, null, alt, n: int, seed: SeedSpec) -> float:
    """One trial's statistic from the library's single-dataset test."""
    if test == "et-simple":
        mu, sigma, constraint = null_constraint(null)
        return run_et_test(standardize(sample(alt, n, seed), mu, sigma), constraint).statistic
    if test == "ks-simple":
        return run_ks_test(sample(alt, n, seed), partial(cdf, null), 1.0).statistic
    y, X = simulate_model(null, n, seed, error_process=alt)
    if test == "et-regression":
        return run_regression_et(y, X).statistic
    return run_regression_ks(y, X, 1.0).statistic


def _bytes(values) -> list[bytes]:
    return [np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("n", [25, 50, 1000])
@pytest.mark.parametrize("test", list(hz.TEST_KINDS))
def test_block_statistic_matches_library(test, n):
    """On its exact context, context(config, n, None), a test kind's block
    statistic is, row for row and byte for byte, the statistic of the
    library's single-dataset test on the same stream; the ks-regression
    block at the canonical null of the design (beta = 0, N(0, 1) errors) is
    the calibration trial's.  On its context at TestKind.critical, the
    block is decided: it rejects where the library's statistic does, and
    its rows near the critical are that statistic byte for byte."""
    kind = hz.TEST_KINDS[test]
    null = DEFAULT_MODEL if kind.regression else Normal(0.0, 1.0)
    alts = _REGRESSION_ALTS if kind.regression else _SIMPLE_ALTS
    config = hz.PowerStudyConfig(
        test=test, alternatives=alts, sample_sizes=(n,), null_spec=null, lilliefors_trials=1000
    )
    critical = kind.critical(config, None, n)
    exact, decided = kind.context(config, n, None), kind.context(config, n, critical)
    first = SeedSpec(2024, 3 * 2**32)
    seeds = [SeedSpec(2024, first.stream_id + t) for t in range(5)]
    for alt in alts:
        library = np.array([_library_statistic(test, null, alt, n, seed) for seed in seeds])
        assert _bytes(kind.statistic(exact, alt, n, first, len(seeds))) == _bytes(library)
        block = kind.statistic(decided, alt, n, first, len(seeds))
        assert (block > critical).tolist() == (library > critical).tolist()
        margin = (block != 0.0) & (block != math.inf)
        assert _bytes(block[margin]) == _bytes(library[margin])
    if test == "ks-regression":
        canonical = kind.context(replace(config, null_spec=LinearModelSpec((0.0, 0.0), 1.0)), n, None)
        block = kind.statistic(canonical, Normal(0.0, 1.0), n, first, len(seeds))
        assert _bytes(block) == _bytes(null_trial_ks_distance(null, n, seed) for seed in seeds)


@pytest.mark.parametrize("test", list(hz.TEST_KINDS))
def test_payloads_carry_their_rows_context(monkeypatch, test):
    """The first row's chunk carries the exact context of its n, and every
    later chunk the context of its own n at that n's critical: a KS kind's
    bands are those of its row's n alone."""
    kind = hz.TEST_KINDS[test]
    null = dict(null_spec=DEFAULT_MODEL, lilliefors_trials=1000) if kind.regression else {}
    cfg = small_config(test=test, alternatives=(Normal(0, 1), Cauchy(0, 1)), sample_sizes=(25, 50), trials=100, **null)
    payloads = []
    run_chunk = hz._run_chunk

    def recording(payload):
        payloads.append(payload)
        return run_chunk(payload)

    monkeypatch.setattr(hz, "_run_chunk", recording)
    hz.run_power_study(cfg)
    criticals = {n: kind.critical(cfg, None, n) for n in cfg.sample_sizes}
    expected = [kind.context(cfg, 25, None)] + [kind.context(cfg, n, criticals[n]) for n in (50, 25, 50)]
    assert [payload[2] for payload in payloads] == [25, 50, 25, 50]
    assert [pickle.dumps(payload[-1]) for payload in payloads] == [pickle.dumps(context) for context in expected]
    if test.startswith("ks"):
        assert payloads[0][-1][1] is None
        assert all(len(band) == payload[2] for payload in payloads[1:] for band in payload[-1][1])


@pytest.mark.parametrize(
    "preset, master_seed", [pytest.param(p, seed, id=p) for p, seed in (("a3", 25), ("a4", 24), ("a5", 25), ("a6", 25))]
)
def test_preset_rows_do_not_depend_on_workers_blocks_or_decisions(monkeypatch, preset, master_seed):
    """The a3-a6 studies give the same rows at workers 1 and 2, at one
    trial per block, and with every trial's exact statistic in place of its
    decision."""
    cfg = table_config(preset, trials=100, master_seed=master_seed, lilliefors_trials=1000)
    rows = hz.run_power_study(cfg).rows
    assert hz.run_power_study(cfg, workers=2).rows == rows
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_BLOCK_WORDS", 1)
        assert hz.run_power_study(cfg).rows == rows
    kind = hz.TEST_KINDS[cfg.test]
    exact = replace(kind, context=lambda config, n, critical: kind.context(config, n, None))
    monkeypatch.setitem(hz.TEST_KINDS, cfg.test, exact)
    assert hz.run_power_study(cfg).rows == rows


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        table = hz.run_power_study(small_config(sample_sizes=(25,)))
        path = tmp_path / "t.csv"
        hz.emit_power_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "test,alternative,n,alpha,trials,rejections,power,se"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            hz.emit_power_csv(hz.PowerTable(), tmp_path / "no.csv")
        assert not (tmp_path / "no.csv").exists()

    def test_comma_label_rejected(self, tmp_path):
        row = hz.PowerRow("et-simple", "bad,label", 25, 0.05, 100, 5)
        with pytest.raises(ValueError):
            hz.emit_power_csv(hz.PowerTable([row]), tmp_path / "no.csv")

    @pytest.mark.parametrize("label", ["two\nlines", "two\rlines", "two\r\nlines"])
    def test_line_break_label_rejected(self, label):
        # a line break would split the row into two broken CSV lines
        row = hz.PowerRow("et-simple", label, 25, 0.05, 100, 5)
        with pytest.raises(ValueError, match="may not contain commas or line breaks"):
            hz.power_csv_line(row)


class TestSvg:
    def test_structure(self, tmp_path):
        table = hz.run_power_study(small_config())
        path = tmp_path / "p.svg"
        hz.emit_power_svg(table, path)
        text = path.read_text()
        root = ET.fromstring(text)  # well-formed XML
        assert root.tag.endswith("svg")
        assert text.count("<polyline") == 2  # one per alternative
        assert "stroke-dasharray" in text  # the alpha reference line
        assert "#d62728" in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            hz.emit_power_svg(hz.PowerTable(), tmp_path / "no.svg")
        assert not (tmp_path / "no.svg").exists()

    def test_single_n(self, tmp_path):
        table = hz.run_power_study(small_config(sample_sizes=(25,)))
        hz.emit_power_svg(table, tmp_path / "one.svg")
        assert (tmp_path / "one.svg").exists()

    def test_label_markup_escaped(self, tmp_path):
        # row labels come from config files, so XML markup in them is text
        labels = ("a<b&c", "d>e")
        table = hz.PowerTable([hz.PowerRow("et-simple", label, 25, 0.05, 100, 5) for label in labels])
        hz.emit_power_svg(table, tmp_path / "p.svg")
        texts = [el.text for el in ET.parse(tmp_path / "p.svg").getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert set(labels) <= set(texts)


class TestDistributionGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("normal:0:1", Normal(0, 1)),
            ("normal:0.6:1", Normal(0.6, 1)),
            ("uniform:-1.5:1.5", Uniform(-1.5, 1.5)),
            ("expo:1:-1", None),
            ("cauchy:0:0.5", Cauchy(0, 0.5)),
            ("t:3", StudentT(3, 1.0)),
            ("t:3:0.57735", StudentT(3, 0.57735)),
            ("normal:0.5", Normal(0.5, 1)),
        ],
    )
    def test_parse(self, text, expected):
        spec = hz.parse_distribution(text)
        if expected is not None:
            assert spec == expected

    def test_parse_processes(self):
        innov = Normal(0, 2)
        ar = hz.parse_distribution("ar:0.5:0.25:0.125", innovation=innov)
        assert isinstance(ar, ARProcess) and ar.rho == (0.5, 0.25, 0.125)
        assert ar.innovation == innov

    def test_parse_errors(self):
        for bad in ("gamma:1:2", "normal:a:b", "uniform:1", "t", ""):
            with pytest.raises(ValueError):
                hz.parse_distribution(bad)


class TestConfigFile:
    def test_simple_study(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            """
            # a tiny demo study
            test = et-simple
            null = normal:0:1
            alternatives = normal:0:1, cauchy:0:1
            labels = size, heavy
            sample_sizes = 25, 50
            alpha = 0.05
            trials = 250
            master_seed = 7
            """
        )
        cfg = hz.load_config(path)
        assert cfg.test == "et-simple"
        assert cfg.labels == ("size", "heavy")
        assert cfg.sample_sizes == (25, 50)
        assert cfg.trials == 250
        assert cfg.master_seed == 7
        assert cfg.alternatives[1] == Cauchy(0, 1)

    def test_regression_study(self, tmp_path):
        path = tmp_path / "reg.cfg"
        path.write_text(
            """
            test = et-regression
            beta = 1, 5
            sigma2 = 4
            alternatives = normal:0:2, ar:0.5, ma:0.5:0.25
            sample_sizes = 50, 100
            trials = 200
            """
        )
        cfg = hz.load_config(path)
        model = cfg.null_spec
        assert isinstance(model, LinearModelSpec)
        assert model.beta == (1.0, 5.0) and model.sigma2 == 4.0
        ar = cfg.alternatives[1]
        assert isinstance(ar, ARProcess)
        assert ar.innovation == Normal(0.0, 2.0)  # sqrt(sigma2)

    def test_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("test = ks-simple\nalternatives = normal:0:1\nsample_sizes = 25\n")
        cfg = hz.load_config(path)
        assert cfg.alpha == 0.05 and cfg.trials == 10000
        assert cfg.master_seed == hz.DEFAULT_SEED
        assert cfg.null_spec == Normal(0, 1)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("test = et-simple\n")
        with pytest.raises(ValueError, match="missing"):
            hz.load_config(path)

    def test_key_given_twice(self, tmp_path):
        # keys are case-insensitive, so Trials repeats trials
        path = tmp_path / "twice.cfg"
        path.write_text("test = ks-simple\ntrials = 100\nalternatives = normal:0:1\n\nTrials = 200\nsample_sizes = 25\n")
        with pytest.raises(ValueError, match="key 'trials' is given on lines 2 and 5"):
            hz.load_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("test et-simple\n")
        with pytest.raises(ValueError, match="key = value"):
            hz.load_config(path)

    def test_regression_defaults(self):
        pairs = {"test": "ks-regression", "alternatives": "ar:0.5", "sample_sizes": "50"}
        cfg = hz.config_from_pairs(pairs)
        assert cfg.null_spec == DEFAULT_MODEL
        assert cfg.alternatives == (ARProcess((0.5,), Normal(0, 2)),)
        assert cfg.lilliefors_trials == hz.PowerStudyConfig.lilliefors_trials

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("trials", "1e3", "an integer"),
            ("alpha", "five%", "a number"),
            ("master_seed", "0x10", "an integer"),
            ("lilliefors_trials", "2e4", "an integer"),
            ("sample_sizes", "25, 5O", "an integer"),
            ("beta", "1, five", "a number"),
            ("sigma2", "4,0", "a number"),
        ],
    )
    def test_value_error_names_key(self, key, value, expected):
        pairs = {"test": "ks-regression", "alternatives": "normal:0:2", "sample_sizes": "50", key: value}
        with pytest.raises(ValueError, match=f"^config key '{key}' takes {expected}: "):
            hz.config_from_pairs(pairs)

    @pytest.mark.parametrize(
        "test,extra,unread",
        [
            ("et-simple", {"trails": "100"}, "trails"),
            ("ks-simple", {"beta": "1, 5", "sigma2": "4"}, "beta, sigma2"),
            ("et-regression", {"null": "normal:0:1"}, "null"),
            ("ks-regression", {"null": "normal:0:1", "trails": "100"}, "null, trails"),
        ],
    )
    def test_unread_keys(self, test, extra, unread):
        pairs = {"test": test, "alternatives": "normal:0:2", "sample_sizes": "50", **extra}
        with pytest.raises(ValueError, match=f"config keys not read by a {test} study: {unread}$"):
            hz.config_from_pairs(pairs)


def _counts(value: int):
    """value, or value as a numpy integer, a float or a bool."""
    return st.one_of(st.just(value), st.sampled_from((np.int64, np.uint16, float, bool)).map(lambda t: t(value)))


_REALS = st.floats(-2.0, 2.0)
_SCALES = st.floats(0.25, 4.0)
_IID = {
    Normal: st.builds(Normal, _REALS, _SCALES),
    Uniform: st.builds(lambda low, width: Uniform(low, low + width), _REALS, _SCALES),
    Exponential: st.builds(Exponential, _SCALES, _REALS),
    Cauchy: st.builds(Cauchy, _REALS, _SCALES),
    StudentT: st.builds(StudentT, st.integers(2, 6), _SCALES),
    CenteredLogNormal: st.builds(CenteredLogNormal, st.floats(0.1, 2.0)),
}
# sum |rho| < 1: the process is stationary (explosive ones are test_overflowing_error_process_named's)
_STATIONARY = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(
    lambda r: tuple(0.95 * x / max(1.0, sum(map(abs, r))) for x in r)
)
_SPECS = {
    **_IID,
    ARProcess: st.builds(ARProcess, _STATIONARY, st.one_of(*_IID.values())),
    MAProcess: st.builds(MAProcess, st.lists(_REALS, min_size=1, max_size=3), st.one_of(*_IID.values())),
}
_NULLS = {**_SPECS, LinearModelSpec: st.builds(LinearModelSpec, st.lists(_REALS, min_size=1, max_size=5), _SCALES)}
# n from 1 to 6 meets each kind's least n and k + 1 for k up to 5
_SIZES = (50, 25, 100, 6, 5, 4, 3, 2, 1)


def _test_and_null(test: str):
    """test with a null of a type it takes, or of any type."""
    takes = st.one_of(*(_NULLS[cls] for cls in hz.TEST_KINDS[test].nulls))
    return st.tuples(st.just(test), st.booleans().flatmap(lambda own: takes if own else st.one_of(*_NULLS.values())))


@settings(max_examples=30, deadline=None)
@given(
    test_and_null=st.sampled_from(sorted(hz.TEST_KINDS)).flatmap(_test_and_null),
    alternatives=st.lists(st.one_of(*_SPECS.values()), min_size=1, max_size=2),
    sample_sizes=st.lists(st.sampled_from(_SIZES), min_size=1, max_size=2, unique=True).flatmap(
        lambda ns: st.tuples(*map(_counts, ns))
    ),
    trials=_counts(100),
    lilliefors_trials=_counts(1000),
)
# a ks-regression study calibrates only after its first row; too few
# calibration trials must fail when the config is built, not then
@example(("ks-regression", DEFAULT_MODEL), [Normal(0.0, 1.0)], (50,), 100, 999)
def test_config_raises_when_built_or_runs(test_and_null, alternatives, sample_sizes, trials, lilliefors_trials):
    """A config either raises ValueError when it is built or runs to a CSV
    whose trials column is an integer: no input fails inside the study."""
    test, null = test_and_null
    try:
        config = hz.PowerStudyConfig(
            test=test, alternatives=tuple(alternatives), sample_sizes=sample_sizes, trials=trials,
            null_spec=null, lilliefors_trials=lilliefors_trials,
        )
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "power.csv"
        hz.emit_power_csv(hz.run_power_study(config), path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == len(alternatives) * len(sample_sizes)
    assert {row[4] for row in rows} == {"100"}


def test_benchmark_tracer_bindings(monkeypatch):
    """perfbench/study.py wraps each layer function where harness, regression
    and sampling bind it, by name; every such name must still resolve."""

    class PassThrough:
        counts = Counter()

        def wrap(self, name, fn, **kw):
            return fn

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    importlib.import_module("study").install_tracer(PassThrough())


_SPANS_SCRIPT = """
import json, tempfile
from pathlib import Path
import entropygof as eg
import spans, study
from entropygof.harness import TEST_KINDS
from entropygof.regression import DEFAULT_MODEL
tracer = spans.Tracer()
study.install_tracer(tracer)
hit = {}
for test in ("et-simple", "ks-simple", "et-regression", "ks-regression"):
    null = {"null_spec": DEFAULT_MODEL} if TEST_KINDS[test].regression else {}
    cfg = eg.PowerStudyConfig(
        test=test, alternatives=(eg.Cauchy(0.0, 1.0),), sample_sizes=(50,), trials=100, lilliefors_trials=1000, **null
    )
    first = len(tracer.spans)
    with tempfile.TemporaryDirectory() as cold:
        eg.run_power_study(cfg, cache=eg.CalibrationCache(Path(cold) / "calibration.txt"))
    hit[test] = sorted({span[0] for span in tracer.spans[first:]})
print(json.dumps(hit))
"""

_REGRESSION_SPANS = {"regression.simulate", "regression.ols_fit", "regression.transform"}


def test_benchmark_tracer_spans_hit():
    """Each test kind's study runs through the layer functions that
    perfbench/study.py wraps, so every layer it uses shows up as a span.

    The alternative is Cauchy, so the normal quantile is hit only where a
    ks-regression calibration draws its null normals.  sampling.stream is
    never hit: it wraps SeedSpec.generator, which the block engine does not
    call (ROADMAP, item 2).
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", _SPANS_SCRIPT], env=env, capture_output=True, text=True, check=True)
    hit = {test: set(names) for test, names in json.loads(run.stdout).items()}
    chunk = {"harness.chunk", "sampling.draw"}
    assert hit == {
        "et-simple": chunk | {"moments.kernel", "maxent.solve"},
        "ks-simple": chunk | {"kstest.critical", "kstest.statistic", "numerics.normal_cdf"},
        "et-regression": chunk | _REGRESSION_SPANS | {"maxent.solve"},
        "ks-regression": chunk
        | _REGRESSION_SPANS
        | {"kstest.statistic", "numerics.normal_cdf", "numerics.normal_quantile"}
        | {"kstest.calibration", "kstest.calibration_trial", "kstest.cache_lookup"},
    }


@pytest.mark.parametrize("workload", ["et-simple", "ks-simple", "regression"])
def test_benchmark_plan(tmp_path, monkeypatch, workload):
    """perfbench/study.py --plan sets a workload's studies up from the package
    as every benchmark pass does, so a package change that breaks that set-up
    fails here: it exits 0 and lists each preset with table_config's rows."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    argv = [sys.executable, str(root / "perfbench" / "study.py"), "--workload", workload, "--seed", "7"]
    run = subprocess.run([*argv, "--out", str(tmp_path), "--plan"], cwd=tmp_path, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    presets = importlib.import_module("study").WORKLOADS[workload]["presets"]
    studies = json.loads((tmp_path / "plan.json").read_text())["studies"]
    expected = {name: len(table_config(name).alternatives) * len(table_config(name).sample_sizes) for name in presets}
    assert {name: study["rows"] for name, study in studies.items()} == expected



@pytest.mark.parametrize(
    "workload, seed",
    [
        pytest.param(workload, seed, id=workload if seed == hz.DEFAULT_SEED else f"{workload}-seed{seed}")
        for workload in ("et-simple", "ks-simple", "regression")
        for seed in (hz.DEFAULT_SEED, 7)
    ],
)
def test_benchmark_digests(tmp_path, workload, seed):
    """One perfbench/study.py pass, at the default seed and at seed 7, writes
    the preset CSVs that perfbench/digests.json pins, so a change of output
    fails here and not only in the benchmark."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    argv = [sys.executable, str(root / "perfbench" / "study.py"), "--workload", workload, "--out", str(tmp_path)]
    run = subprocess.run([*argv, "--seed", str(seed)], cwd=tmp_path, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    pinned = json.loads((root / "perfbench" / "digests.json").read_text())[workload][str(seed)]
    assert {name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() for name in pinned} == pinned

_FAULTS_SCRIPT = """
import json, resource
import entropygof as eg
faults = {}
for test in ("ks-simple", "et-simple"):
    cfg = eg.PowerStudyConfig(
        test=test, alternatives=(eg.StudentT(3), eg.Cauchy(0.0, 1.0)), sample_sizes=(1000,), trials=400
    )
    eg.run_power_study(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    eg.run_power_study(cfg)
    faults[test] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are set through glibc's mallopt")
def test_blocks_keep_their_heap():
    """A study run again in one process takes next to no page faults: the
    memory its blocks free stays in the heap (sampling._keep_heap), where
    glibc would trim it and send each block's temporaries of 128 KiB or more
    to mmap, so that every block faulted them in afresh (about 11,000 faults
    per study without it)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True, check=True)
    faults = json.loads(run.stdout)
    assert set(faults) == {"ks-simple", "et-simple"}
    assert all(count < 100 for count in faults.values()), faults


def test_bundled_tables_cover_references():
    from entropygof.tables import TABLE_NAMES, reference_value, table_config

    for name in TABLE_NAMES:
        cfg = table_config(name, trials=100)
        assert cfg.labels is not None
        for label in cfg.labels:
            for n in cfg.sample_sizes:
                val = reference_value(name, label, n)
                assert 0.0 <= val <= 1.0
    cauchy_alt = table_config("a3").alternatives[5]
    assert cauchy_alt == Cauchy(0.0, 2.0 / math.pi)  # scale exactly as printed
