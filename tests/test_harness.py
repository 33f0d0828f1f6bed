import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

import entropygof.harness as hz
import entropygof.sampling as sampling
from entropygof.regression import DegenerateTrialError, LinearModelSpec
from entropygof.sampling import ARProcess, Cauchy, Normal, SeedSpec, StudentT, Uniform


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

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            small_config(labels=("only-one",))

    def test_et_simple_null_must_be_normal_or_cauchy(self):
        cfg = small_config(null_spec=Uniform(0, 1))
        with pytest.raises(ValueError):
            hz.run_power_study(cfg)

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

        def flaky(context, alt, n, seeds):
            # trial 17 of every row is degenerate; it spoils any block holding it
            if any(seed.stream_id % (1 << 32) == 17 for seed in seeds):
                raise DegenerateTrialError("zero denominator")
            return kind.statistic(context, alt, n, seeds)

        monkeypatch.setitem(hz.TEST_KINDS, "ks-simple", replace(kind, statistic=flaky))
        cfg = small_config(test="ks-simple", trials=1000, sample_sizes=(25,))
        blocked = hz.run_power_study(cfg).rows
        monkeypatch.setattr(sampling, "_BLOCK_ELEMENTS", 1)
        assert hz.run_power_study(cfg).rows == blocked
        assert [r.failures for r in blocked] == [1, 1]

    @pytest.mark.parametrize("test", ["et-simple", "ks-simple", "et-regression", "ks-regression"])
    def test_block_size_does_not_change_rows(self, monkeypatch, test):
        alternatives = (Normal(0, 1), StudentT(3, 1.0), Cauchy(0, 1))
        kw = {}
        if hz.TEST_KINDS[test].regression:
            alternatives += (ARProcess((0.5,), Normal(0, 2)),)
            kw = dict(null_spec=LinearModelSpec(beta=(1.0, 5.0), sigma2=4.0), lilliefors_trials=1000)
        cfg = small_config(test=test, alternatives=alternatives, sample_sizes=(25, 100), trials=300, **kw)
        blocked = hz.run_power_study(cfg).rows
        monkeypatch.setattr(sampling, "_BLOCK_ELEMENTS", 1)
        assert hz.run_power_study(cfg).rows == blocked

    @pytest.mark.parametrize("test", ["et-regression", "ks-regression"])
    def test_degenerate_regression_trial_counted_once(self, monkeypatch, test):
        simulate = hz.simulate_model

        def one_flat_design(model, n, seeds, error_process=None):
            # trial 17 of every row gets a design with two intercept columns
            y, X = simulate(model, n, seeds, error_process)
            ids = [seeds.stream_id] if isinstance(seeds, SeedSpec) else [s.stream_id for s in seeds]
            for b, stream_id in enumerate(ids):
                if stream_id % (1 << 32) == 17:
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
        monkeypatch.setattr(sampling, "_BLOCK_ELEMENTS", 1)
        assert hz.run_power_study(cfg).rows == blocked

    def test_progress_hook(self):
        seen = []
        hz.run_power_study(small_config(sample_sizes=(25,)), progress=seen.append)
        assert len(seen) == 2
        assert all(isinstance(r, hz.PowerRow) for r in seen)


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


class TestCsv:
    def test_round_trip_byte_identical(self, tmp_path):
        table = hz.run_power_study(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        hz.emit_power_csv(table, p1)
        hz.emit_power_csv(hz.read_power_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    def test_bad_header_on_read(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("wrong,header\n")
        with pytest.raises(ValueError):
            hz.read_power_csv(path)


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

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("test et-simple\n")
        with pytest.raises(ValueError, match="key = value"):
            hz.load_config(path)


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
