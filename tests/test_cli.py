import numpy as np
import pytest

from entropygof.cli import main, read_data_file
from entropygof.kstest import lilliefors_critical
from entropygof.regression import LinearModelSpec
from entropygof.sampling import Cauchy, Normal, SeedSpec, sample


@pytest.fixture
def normal_file(tmp_path):
    path = tmp_path / "normal.txt"
    data = sample(Normal(0, 1), 800, SeedSpec(8080, 0))
    path.write_text("# standard normal draws\n\n" + "\n".join(f"{v:.17g}" for v in data) + "\n")
    return path


@pytest.fixture
def cauchy_file(tmp_path):
    path = tmp_path / "cauchy.txt"
    np.savetxt(path, sample(Cauchy(0, 1), 300, SeedSpec(8080, 1)))
    return path


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(":")
        pairs[key.strip()] = value.strip()
    return pairs


class TestDataFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# c\n1.5\n\n-2.5\n")
        assert read_data_file(path) == [1.5, -2.5]

    def test_malformed_names_line(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("1.0\noops\n2.0\n")
        code, _, err = run_cli(capsys, ["test", str(path)])
        assert code == 2
        assert ":2:" in err and "oops" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["test", "definitely-not-here.txt"])
        assert code == 2

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_nonfinite_line_rejected(self, tmp_path, capsys, token):
        path = tmp_path / "d.txt"
        path.write_text(f"1.0\n2.0\n{token}\n")
        for method in ("et", "ks"):
            code, _, err = run_cli(capsys, ["test", str(path), "--method", method])
            assert code == 2
            assert f":3: not a finite number: '{token}'" in err

    def test_too_few_values(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("1.0\n")
        code, _, err = run_cli(capsys, ["test", str(path)])
        assert code == 2


class TestCmdTest:
    def test_et_null_accept(self, normal_file, capsys):
        code, out, _ = run_cli(capsys, ["test", str(normal_file), "--method", "et"])
        assert code == 0
        report = parse_report(out)
        assert report["decision"] == "do not reject"
        assert float(report["statistic"]) >= 0.0
        assert float(report["critical"]) == pytest.approx(3.84146, abs=1e-4)
        assert 0.0 <= float(report["p_value"]) <= 1.0
        assert report["n"] == "800"

    def test_et_cauchy_data_rejected(self, cauchy_file, capsys):
        code, out, _ = run_cli(capsys, ["test", str(cauchy_file), "--method", "et"])
        assert code == 1
        assert parse_report(out)["decision"] == "reject"

    def test_ks_method(self, normal_file, capsys):
        code, out, _ = run_cli(capsys, ["test", str(normal_file), "--method", "ks"])
        assert code == 0
        report = parse_report(out)
        assert report["method"] == "ks"
        assert float(report["statistic"]) < float(report["critical"])

    def test_mu_sigma_standardization(self, tmp_path, capsys):
        path = tmp_path / "scaled.txt"
        np.savetxt(path, 7.0 + 3.0 * sample(Normal(0, 1), 800, SeedSpec(8080, 2)))
        code, _, _ = run_cli(capsys, ["test", str(path), "--mu", "7", "--sigma", "3"])
        assert code == 0
        # untransformed it must reject
        code, _, _ = run_cli(capsys, ["test", str(path)])
        assert code == 1

    def test_cauchy_null_et(self, cauchy_file, capsys):
        code, out, _ = run_cli(capsys, ["test", str(cauchy_file), "--null", "cauchy"])
        assert code == 0

    def test_custom_cf_integral(self, normal_file, capsys):
        code, _, _ = run_cli(
            capsys,
            ["test", str(normal_file), "--null", "custom-cf-integral",
             "--cf-integral", "1.7112487837842976"],
        )
        assert code == 0

    def test_custom_requires_value(self, normal_file, capsys):
        code, _, err = run_cli(capsys, ["test", str(normal_file), "--null", "custom-cf-integral"])
        assert code == 2 and "cf-integral" in err

    def test_ks_needs_full_cdf(self, normal_file, capsys):
        code, _, err = run_cli(
            capsys,
            ["test", str(normal_file), "--method", "ks", "--null", "custom-cf-integral"],
        )
        assert code == 2

    def test_bad_sigma(self, normal_file, capsys):
        code, _, _ = run_cli(capsys, ["test", str(normal_file), "--sigma", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--mu", "inf"), ("--sigma", "inf")])
    def test_nonfinite_null_parameter(self, normal_file, capsys, flag, value):
        code, _, err = run_cli(capsys, ["test", str(normal_file), flag, value])
        assert code == 2
        assert f"Normal {flag[2:]} must be finite" in err

    @pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--sigma", "inf"), ("--cf-integral", "inf")])
    def test_nonfinite_custom_parameter(self, normal_file, capsys, flag, value):
        argv = ["test", str(normal_file), "--null", "custom-cf-integral", "--cf-integral", "1.7112487837842976"]
        code, _, err = run_cli(capsys, [*argv, flag, value])
        assert code == 2
        assert f"{flag} must be finite" in err

    def test_unknown_flag(self, normal_file, capsys):
        assert main(["test", str(normal_file), "--bogus"]) == 2

    def test_alpha_changes_critical(self, normal_file, capsys):
        _, out, _ = run_cli(capsys, ["test", str(normal_file), "--alpha", "0.5"])
        assert float(parse_report(out)["critical"]) == pytest.approx(0.454936, abs=1e-5)


class TestCmdSimulate:
    def write_config(self, tmp_path, trials=250):
        path = tmp_path / "study.cfg"
        path.write_text(
            "test = et-simple\n"
            "alternatives = normal:0:1, normal:1:1\n"
            "sample_sizes = 25, 50\n"
            f"trials = {trials}\n"
            "master_seed = 31\n"
        )
        return path

    def test_writes_csv_and_svg(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_csv = tmp_path / "o.csv"
        out_svg = tmp_path / "o.svg"
        code, _, _ = run_cli(
            capsys,
            ["simulate", str(cfg), "--out", str(out_csv), "--svg", str(out_svg), "--quiet"],
        )
        assert code == 0
        assert out_csv.read_text().startswith("test,alternative,n,alpha,trials,rejections,power,se")
        assert "<svg" in out_svg.read_text()

    def test_worker_determinism(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, ["simulate", str(cfg), "--out", str(a), "--quiet"])[0] == 0
        assert run_cli(
            capsys, ["simulate", str(cfg), "--out", str(b), "--workers", "2", "--quiet"]
        )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, ["simulate", str(cfg), "--out", str(a), "--quiet"])
        run_cli(capsys, ["simulate", str(cfg), "--out", str(b), "--seed", "99", "--quiet"])
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("test = et-simple\nsample_sizes = 25\n")
        code, _, err = run_cli(capsys, ["simulate", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "alternatives" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["simulate", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_bundled_preset_name(self, tmp_path, capsys, monkeypatch):
        # bundled presets run at their default trial count; shrink via seedless
        # monkeypatching of the preset builder to keep this test fast
        import entropygof.cli as cli_mod
        from entropygof.tables import table_config

        monkeypatch.setattr(cli_mod, "table_config", lambda name: table_config(name, trials=120))
        out = tmp_path / "a1.csv"
        code, _, _ = run_cli(capsys, ["simulate", "table_a1", "--out", str(out), "--quiet"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "test,alternative,n,alpha,trials,rejections,power,se"
        assert len(lines) == 1 + 36

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{cfg}", "--out", "{missing}/o.csv"],
            ["simulate", "{cfg}", "--out", "{tmp}/o.csv", "--svg", "{missing}/o.svg"],
            ["tables", "a1", "--out", "{missing}/o.csv"],
        ],
        ids=["simulate-out", "simulate-svg", "tables-out"],
    )
    def test_missing_output_directory_fails_before_the_study(self, tmp_path, capsys, monkeypatch, argv):
        import entropygof.cli as cli_mod

        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli_mod, "run_power_study", no_study)
        names = {"cfg": self.write_config(tmp_path), "missing": tmp_path / "nope", "tmp": tmp_path}
        code, _, err = run_cli(capsys, [a.format(**names) for a in argv])
        assert code == 2
        assert f"directory {tmp_path / 'nope'} does not exist" in err


class TestCmdCalibrate:
    def test_prints_and_caches(self, tmp_path, capsys):
        cache = tmp_path / "cal.txt"
        argv = [
            "calibrate", "--n", "40", "--trials", "1000", "--seed", "5",
            "--cache", str(cache),
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        report = parse_report(out)
        crit = float(report["critical"])
        assert 0.0 < crit < 0.5
        assert cache.exists()
        code, out2, _ = run_cli(capsys, argv)
        assert float(parse_report(out2)["critical"]) == crit

    @pytest.mark.parametrize("n", ["0", "2"])
    def test_too_small_n_is_usage_error(self, tmp_path, capsys, n):
        cache = tmp_path / "cal.txt"
        code, out, err = run_cli(capsys, ["calibrate", "--n", n, "--trials", "1000", "--cache", str(cache)])
        assert code == 2 and out == ""
        assert "n > 2" in err
        assert not cache.exists()

    def test_design_named_by_k(self, tmp_path, capsys):
        # the critical depends on the model through k alone, so k is the only model option
        code, out, _ = run_cli(capsys, ["calibrate", "--help"])
        assert code == 0 and "--k K" in out
        assert "--beta" not in out and "--sigma2" not in out
        cache = tmp_path / "cal.txt"
        argv = ["calibrate", "--n", "40", "--trials", "1000", "--seed", "5", "--cache", str(cache)]
        criticals = [float(parse_report(run_cli(capsys, argv + k)[1])["critical"]) for k in ([], ["--k", "3"])]
        model = LinearModelSpec(beta=(1.0, 5.0, -2.0), sigma2=4.0)
        assert criticals[0] != criticals[1] == float(f"{lilliefors_critical(model, 40, 0.05, 1000, 5):.6g}")
        assert [line.split(",")[2] for line in cache.read_text().splitlines()[1:]] == ["2", "3"]
        code, out, err = run_cli(capsys, ["calibrate", "--n", "40", "--k", "0", "--trials", "1000"])
        assert code == 2 and out == "" and "--k must be at least 1" in err

    def test_alpha_one_is_usage_error(self, tmp_path, capsys):
        # alpha = 1 would make every residual distance critical at 0
        cache = tmp_path / "cal.txt"
        argv = ["calibrate", "--n", "50", "--alpha", "1", "--trials", "1000", "--cache", str(cache)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "alpha must lie in (0, 1)" in err
        assert not cache.exists()


class TestCmdTables:
    def test_stdout_with_reference_column(self, capsys):
        code, out, _ = run_cli(capsys, ["tables", "a1", "--trials", "150", "--quiet"])
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0]
        assert header.endswith(",reference")
        # a1: 6 mean levels x 6 sample sizes
        data_lines = [l for l in lines[1:] if l and "," in l and not l.startswith("wrote")]
        assert len(data_lines) == 36
        first = data_lines[0].split(",")
        assert first[1] == "u=0" and first[8] == "0.088"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "a2.csv"
        code, _, _ = run_cli(
            capsys, ["tables", "a2", "--trials", "150", "--out", str(out), "--quiet"]
        )
        assert code == 0 and out.exists()

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(capsys, ["tables", "a9"])
        assert code == 2

    def test_env_seed_honored_flag_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTROPYGOF_SEED", "404")
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        out3 = tmp_path / "e3.csv"
        run_cli(capsys, ["tables", "a1", "--trials", "150", "--out", str(out1), "--quiet"])
        run_cli(capsys, ["tables", "a1", "--trials", "150", "--out", str(out2), "--quiet",
                         "--seed", "404"])
        run_cli(capsys, ["tables", "a1", "--trials", "150", "--out", str(out3), "--quiet",
                         "--seed", "405"])
        assert out1.read_bytes() == out2.read_bytes()  # env default == same seed via flag
        assert out1.read_bytes() != out3.read_bytes()  # explicit flag wins over env
