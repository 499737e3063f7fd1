import json
import math
import subprocess
import sys

import pytest

from congruence_lab.cli import canonical_json, main


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "congruence_lab.cli", *args],
        capture_output=True, text=True, **kwargs,
    )


def test_eval_gauss_json():
    res = run_cli(["eval-gauss", "1", "0", "5", "1", "--format", "json"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["re"] == pytest.approx(math.sqrt(5))
    assert data["im"] == pytest.approx(0.0, abs=1e-12)
    assert data["closed_form"]["sqrt_arg"] == 5
    assert data["bruteforce"]["re"] == pytest.approx(math.sqrt(5))


def test_eval_kloosterman_vanishing():
    res = run_cli(["eval-kloosterman", "3", "1", "3", "2"])
    data = json.loads(res.stdout)
    assert data["closed_form"]["is_zero"] is True
    assert abs(complex(data["re"], data["im"])) < 1e-9
    res2 = run_cli(["eval-kloosterman", "1", "1", "3", "2", "--salie"])
    data2 = json.loads(res2.stdout)
    assert data2["re"] == pytest.approx(6 * math.cos(4 * math.pi / 9))


def test_density_verbs():
    res = run_cli(["density", "C", "--lambda", "1", "1", "1", "--p", "5"])
    data = json.loads(res.stdout)
    assert data["num"] == 0
    res_b = run_cli(["density", "B", "--lambda", "1", "1", "2", "--p", "5"])
    db = json.loads(res_b.stdout)
    assert (db["num"], db["den"]) == (4, 5)
    res_a = run_cli(["density", "A", "--lambda", "1", "1", "1", "--p", "3"])
    da = json.loads(res_a.stdout)
    assert (da["num"], da["den"]) == (8, 9)


def test_count_and_verify_asymptotic():
    res = run_cli([
        "count", "--mode", "inhom", "--lambda", "1", "1", "2",
        "--p", "5", "--m", "2", "--N", "25",
    ])
    data = json.loads(res.stdout)
    assert data["T"] > 0 and data["T0"] == pytest.approx(20.0)
    res2 = run_cli([
        "verify-asymptotic", "--mode", "hom", "--lambda", "1", "1", "1", "1",
        "--p", "3", "--m-range", "3..4", "--theta", "0.6", "--format", "csv",
    ])
    lines = res2.stdout.strip().split("\n")
    assert lines[0].split(",")[0] == "N"
    assert len(lines) == 3


def test_count_spectral_agrees_with_direct():
    base = ["count", "--mode", "inhom", "--lambda", "1", "1", "2",
            "--p", "5", "--m", "2", "--N", "25"]
    direct = json.loads(run_cli(base).stdout)
    spectral = json.loads(run_cli(base + ["--method", "spectral"]).stdout)
    assert spectral["T"] == pytest.approx(direct["T"], rel=1e-6)


def test_expsum_scan_csv_and_determinism():
    args = ["expsum-scan", "--p", "3", "--s-range", "2..4", "--trials", "5",
            "--seed", "11", "--format", "csv"]
    a = run_cli(args)
    b = run_cli(args + ["--threads", "3"])
    assert a.returncode == 0 and a.stdout == b.stdout
    header = a.stdout.split("\n", 1)[0]
    assert header == "p,s,Lambda,a,b,c,K,mu,re,im,abs,normalized"


def test_tau_and_singular_series_and_quad():
    res = run_cli(["tau", "2", "--deltas", "1", "1", "--p", "3", "--m", "5", "--N", "10"])
    assert json.loads(res.stdout)["tau"] > 0
    res2 = run_cli(["singular-series", "1", "--deltas", "1", "1", "1", "1",
                    "--p", "3", "--q-max", "10"])
    data = json.loads(res2.stdout)
    assert "coefficients" in data and data["coefficients"]["1"] == pytest.approx((2 / 3) ** 4)
    res3 = run_cli(["quad-count", "--alphas", "1", "1", "1", "1", "--b", "4",
                    "--s", "4", "--M", "1"])
    assert json.loads(res3.stdout)["count"] == 16


def test_exit_codes():
    assert run_cli(["density", "C", "--lambda", "5", "1", "1", "--p", "5"]).returncode == 2
    assert run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2", "--p", "5",
                    "--m", "2", "--N", "25", "--budget", "10"]).returncode == 3
    assert run_cli(["nonsense-verb"]).returncode == 2


@pytest.mark.parametrize("flags", [["--weight", "bump", "--radius", "inf"], ["--sigma", "nan"]])
def test_non_finite_weight_shape_is_a_validation_error(flags):
    res = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2", "--p", "5",
                   "--m", "2", "--N", "5", *flags])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert flags[-2].lstrip("-") in res.stderr


def test_bump_counts_do_not_import_scipy():
    script = (
        "import sys\n"
        "from congruence_lab.cli import main\n"
        "base = ['count', '--mode', 'inhom', '--lambda', '1', '1', '2', '--p', '5', '--m', '2',\n"
        "        '--N', '25', '--weight', 'bump', '--radius', '0.5', '--output', '/dev/null']\n"
        "assert main(base) == 0 and main(base + ['--method', 'spectral']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_budget_env_var():
    import os

    env = dict(os.environ, CONGRUENCE_LAB_BUDGET="10")
    res = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2", "--p", "5",
                   "--m", "2", "--N", "25"], env=env)
    assert res.returncode == 3
    # explicit flag overrides the environment
    res2 = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2", "--p", "5",
                    "--m", "2", "--N", "25", "--budget", "100000000"], env=env)
    assert res2.returncode == 0


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N=25\nformat=json\n")
    out = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2",
                   "--p", "5", "--m", "2", "--config", str(cfg)])
    assert json.loads(out.stdout)["N"] == 25.0
    out2 = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2",
                    "--p", "5", "--m", "2", "--N", "30", "--config", str(cfg)])
    assert json.loads(out2.stdout)["N"] == 30.0


def test_output_file_and_plain_format(tmp_path):
    path = tmp_path / "report.json"
    res = run_cli(["eval-gauss", "2", "0", "3", "1", "--output", str(path)])
    assert res.returncode == 0 and res.stdout == ""
    data = json.loads(path.read_text())
    assert data["im"] == pytest.approx(-math.sqrt(3))
    plain = run_cli(["eval-gauss", "2", "0", "3", "1", "--format", "plain"])
    assert "re:" in plain.stdout


def test_identical_runs_byte_identical():
    args = ["count", "--mode", "hom", "--lambda", "1", "1", "1", "1",
            "--p", "3", "--m", "4", "--theta", "0.6"]
    assert run_cli(args).stdout == run_cli(args).stdout


def test_canonical_json_formatting():
    text = canonical_json({"b": 0.1, "a": [1, 2.5], "c": {"re": 1.0, "im": -0.0}})
    assert text.startswith('{"a":')
    assert "0.10000000000000001" in text
    assert canonical_json(float("nan")) == '"nan"'


def test_main_in_process():
    assert main(["eval-gauss", "1", "0", "5", "1", "--output", "/dev/null"]) == 0
