import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import charsums, counting, sqrt_expsums
from congruence_lab.cli import canonical_json, main
from congruence_lab.densities import DiagonalForm
from congruence_lab.errors import UnsupportedCase
from congruence_lab.modmath import PrimePowerModulus
from congruence_lab.representations import DualForm, singular_series


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "congruence_lab.cli", *args],
        capture_output=True, text=True, **kwargs,
    )


def run_main(args):
    """main() in this process: (exit code, stdout, stderr); parser errors exit via SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


INHOM_COUNT = ["count", "--mode", "inhom", "--lambda", "1", "1", "2", "--p", "5", "--m", "2"]


def test_eval_gauss_json():
    res = run_cli(["eval-gauss", "1", "0", "5", "1", "--format", "json"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["re"] == pytest.approx(math.sqrt(5))
    assert data["im"] == pytest.approx(0.0, abs=1e-12)
    assert data["closed_form"]["sqrt_arg"] == 5
    assert data["bruteforce"]["re"] == pytest.approx(math.sqrt(5))


# --format json stdout recorded before the closed forms cached their
# b-independent parts; the caches must leave every byte unchanged.
PINNED_EVAL_REPORTS = {
    "eval-gauss 0 0 5 2": '{"bruteforce":{"im":0,"re":25},"closed_form":{"eps":{"im":0,"re":1},"is_zero":false,"phase_den":1,"phase_num":0,"rational_factor":25,"sign":1,"sqrt_arg":1},"im":0,"re":25}\n',
    "eval-gauss 0 3 5 2": '{"bruteforce":{"im":-1.1102230246251565e-16,"re":-4.4408920985006262e-16},"closed_form":{"is_zero":true},"im":0,"re":0}\n',
    "eval-gauss 10 5 5 3": '{"bruteforce":{"im":17.113677648217216,"re":18.224215685535292},"closed_form":{"eps":{"im":0,"re":1},"is_zero":false,"phase_den":25,"phase_num":3,"rational_factor":5,"sign":1,"sqrt_arg":25},"im":17.113677648217216,"re":18.224215685535288}\n',
    "eval-gauss 12 345 7 4": '{"bruteforce":{"im":-40.47967951572987,"re":-27.611511119527623},"closed_form":{"eps":{"im":0,"re":1},"is_zero":false,"phase_den":2401,"phase_num":1572,"rational_factor":1,"sign":1,"sqrt_arg":2401},"im":-40.479679515729877,"re":-27.611511119527648}\n',
    "eval-gauss -4 9 3 5": '{"bruteforce":{"im":7.7942286340599445,"re":13.500000000000005},"closed_form":{"eps":{"im":1,"re":0},"is_zero":false,"phase_den":243,"phase_num":81,"rational_factor":1,"sign":-1,"sqrt_arg":243},"im":7.7942286340599445,"re":13.500000000000002}\n',
    "eval-kloosterman 7 13 5 3": '{"closed_form":{"is_zero":false,"p":5,"s":3,"terms":[{"coeff":{"im":0,"re":1},"phase_num":58},{"coeff":{"im":0,"re":1},"phase_num":67}]},"im":-2.1722173840913641e-15,"re":-21.791083334510766}\n',
    "eval-kloosterman 7 13 5 3 --salie": '{"closed_form":{"is_zero":false,"p":5,"s":3,"terms":[{"coeff":{"im":0,"re":-1},"phase_num":58},{"coeff":{"im":0,"re":-1},"phase_num":67}]},"im":2.1722173840913641e-15,"re":21.791083334510766}\n',
    "eval-kloosterman 7 11 5 3": '{"closed_form":{"is_zero":true},"im":0,"re":0}\n',
    "eval-kloosterman 7 11 5 3 --salie": '{"closed_form":{"is_zero":true},"im":0,"re":0}\n',
}


@pytest.mark.parametrize("command", sorted(PINNED_EVAL_REPORTS))
def test_eval_reports_are_byte_identical(command):
    code, out, err = run_main([*command.split(), "--format", "json"])
    assert (code, err) == (0, "")
    assert out == PINNED_EVAL_REPORTS[command]


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


# SHA-256 of the stdout of the scalar per-k root-sum loop (one cos or sin per
# root pair of an aggregate row, one exp per fixed-class root): the README
# example, and p = 7 with rows of up to ~10^5 terms
PINNED_SCAN_SHA256 = {
    "expsum-scan --p 3 --s-range 2..10 --trials 50 --seed 1 --format csv":
        "59068166ad4eb17f9f6c1ed5de9485ce2b47ea4c524379fc31f86b3d2f8943d2",
    "expsum-scan --p 7 --s-range 2..10 --trials 40 --seed 3 --format csv":
        "7f0ccc92870761c836e40071f394cb9f0aa04370e85940fd381c7f1fb7472ddd",
}


@pytest.mark.parametrize("command", sorted(PINNED_SCAN_SHA256))
def test_expsum_scan_bytes_are_pinned(command):
    code, out, err = run_main(command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN_SHA256[command]


@pytest.mark.parametrize("command, message", [
    ("expsum-scan --p 3 --s-range 2..10 --trials 100000 --seed 1",
     "budget exceeded: bound scan needs ~1.00e+8 ops, budget is 100000000\n"),
    ("expsum-scan --p 5 --s-range 3..3 --trials 1000000 --c-max 1000000 --k-cap 1000000 --budget 1000000",
     "budget exceeded: bound scan needs ~1.00e+6 ops, budget is 1000000\n"),
    ("expsum-scan --p 3 --s-range 20..20 --trials 50 --c-max 1 --k-cap 1000000000 --seed 1",
     "budget exceeded: scan row terms needs ~1.00e+9 ops, budget is 10000000\n"),
])
def test_refused_scans_exit_3_before_building_a_row(command, message):
    # ~10^6 rows are drawn before each budget crossing, none before a refused k_cap; none becomes a row object
    with mock.patch.object(sqrt_expsums, "_params", wraps=sqrt_expsums._params) as params:
        code, out, err = run_main(command.split())
    assert (code, out, err) == (3, "", message)
    assert params.call_count == 0


def _readme_cli_lines():
    """The congruence-lab lines of README.md's sh blocks, without the program name."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return [line.split(maxsplit=1)[1] for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("congruence-lab ")]


# SHA-256 of each README example's stdout; a report byte that moves edits its pin
PINNED_README_SHA256 = {
    "eval-gauss 1 0 5 1 --format json":
        "fe18074becbb494a8d1edec48514a694bd31b960ad238eee6e47b6960dd3a807",
    "eval-kloosterman 1 1 3 2 --salie":
        "13a2b5e31f6c6b833335f9714d53ca439d811adaf61e02fdb35fb9c642f1d923",
    "density C --lambda 1 1 1 --p 5":
        "a4c2e2c35bcf1084356b05c46f0917fa4b76c5c1d69c11db9b9498dbe24cfdaf",
    "density B --lambda 1 1 2 --p 5":
        "8b4a3bf6b5e83b1505be88a9a66a6f2bb9cd8bdf5ed3e84e49b2c80c6ef377b5",
    "count --mode inhom --lambda 1 1 2 --p 5 --m 2 --N 25":
        "cd89b9eaefae0b3a926d563ee6938af71f0242952fe6f1f871c0455eb85576e0",
    "count --mode hom --lambda 1 1 1 1 --p 3 --m 5 --theta 0.6":
        "f7baab43fa0c5c4dccef89779d6f5bc94a4cb7231309ceb4cfedc516c76eca5f",
    "count --mode inhom --lambda 1 1 2 --p 5 --m 2 --N 25 --method spectral":
        "41f7cd0387b95a5c542552fb2a132eda8e8e5f203540d5b2277518b11a6f274e",
    "verify-asymptotic --mode hom --lambda 1 1 1 1 --p 3 --m-range 3..6 --theta 0.6":
        "0b0df1df539866f58a9ed139aa60afa706836efc95bd08f42b1284c37401acba",
    "expsum-scan --p 3 --s-range 2..10 --trials 50 --seed 1 --format csv":
        "59068166ad4eb17f9f6c1ed5de9485ce2b47ea4c524379fc31f86b3d2f8943d2",
    "tau 2 --deltas 1 1 --p 3 --m 5 --N 10":
        "2c49e591ec01f3d7feefcbb57256939cebb9762c64b595102d12734b02687afb",
    "singular-series 1 --deltas 1 1 1 1 --p 3 --q-max 50":
        "9aa982959b809474b8a9ae6ed091a0516e034ceab58b1ea73cc20c9d7cdf2d47",
    "quad-count --alphas 1 1 1 1 --b 4 --s 4 --M 1":
        "c0a87520b9d9692510fca6abd3e3023b745d86d330a4a3244cb47e0943ae895b",
    "selftest --quick":
        "9536077ae6fb1a53231f16733b454eb47f20d2e79537942282ec2b8c165a4301",
}


@pytest.mark.parametrize("command", _readme_cli_lines())
def test_readme_examples_are_pinned(command):
    code, out, err = run_main(shlex.split(command))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_README_SHA256[command]


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


def test_spectral_count_refuses_N_to_the_n_beyond_the_float_range():
    code, out, err = run_main(INHOM_COUNT + ["--N", "1e300", "--method", "spectral"])
    assert (code, out) == (2, "")
    assert "float range" in err


@pytest.mark.parametrize("r", ["1000", "10000000"])
def test_tau_refuses_a_level_r_beyond_the_float_range_at_once(r):
    start = time.perf_counter()
    code, out, err = run_main(["tau", "2", "--deltas", "1", "1", "--p", "3", "--m", "5",
                               "--N", "10", "--r", r])
    assert (code, out) == (2, "")
    assert "float range" in err
    assert time.perf_counter() - start < 0.5  # p^r is never built


@pytest.mark.parametrize("flags", [["--weight", "bump", "--radius", "inf"], ["--sigma", "nan"]])
def test_non_finite_weight_shape_is_a_validation_error(flags):
    res = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "2", "--p", "5",
                   "--m", "2", "--N", "5", *flags])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert flags[-2].lstrip("-") in res.stderr


def test_gaussian_sigma_whose_square_underflows_is_a_validation_error():
    code, out, err = run_main([*INHOM_COUNT, "--N", "25", "--sigma", "1e-300", "--budget", "20000"])
    assert code == 2 and out == ""
    assert "Traceback" not in err and "sigma" in err


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


_DENSITY_ABSENT = ("numpy", "counting", "charsums", "representations", "sqrt_expsums")
_ALL_SUBMODULES = ("charsums", "cli", "counting", "densities", "errors", "modmath", "representations", "sqrt_expsums")


@pytest.mark.parametrize("argv, absent", [
    (["density", "C", "--lambda", "1", "1", "1", "--p", "5"], _DENSITY_ABSENT),
    (["density", "B", "--lambda", "1", "1", "2", "--p", "5"], _DENSITY_ABSENT),
    (["eval-gauss", "1", "0", "5", "1"], ("counting", "representations", "sqrt_expsums")),
    (INHOM_COUNT + ["--N", "25"], ("charsums", "representations", "sqrt_expsums")),
    (["expsum-scan", "--p", "3", "--s-range", "2..4", "--trials", "5"], ("counting", "charsums", "representations")),
    (None, ("numpy", *_ALL_SUBMODULES)),  # a bare `import congruence_lab`
], ids=["density-C", "density-B", "eval-gauss", "count-direct", "expsum-scan", "bare-import"])
def test_cold_start_loads_only_what_the_verb_runs(argv, absent):
    """A fresh interpreter running one verb (or only importing the package)
    never imports the modules that verb does not use."""
    if argv is None:
        run = "import congruence_lab\n"
    else:
        run = f"from congruence_lab.cli import main\nassert main({argv + ['--output', '/dev/null']!r}) == 0\n"
    script = run + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    names = {m if m == "numpy" else f"congruence_lab.{m}" for m in absent}
    assert not names & set(json.loads(res.stdout))


def test_budget_refusal_of_an_estimate_beyond_float_range():
    res = run_cli(["tau", str(10**700), "--deltas", "1", "1", "--p", "3", "--m", "2", "--N", "10"])
    assert res.returncode == 3
    assert "budget" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("method", ["direct", "spectral"])
def test_six_squares_mod_5_6_run_at_the_default_budget(method):
    import os

    env = {k: v for k, v in os.environ.items() if k != "CONGRUENCE_LAB_BUDGET"}
    res = run_cli(["count", "--mode", "inhom", "--lambda", "1", "1", "1", "1", "1", "1", "2",
                   "--p", "5", "--m", "6", "--theta", "0.55", "--method", method], env=env)
    assert res.returncode == 0, res.stderr
    assert abs(json.loads(res.stdout)["ratio"] - 1.0) <= 0.25


def test_six_square_asymptotic_at_5_7_default_budget(monkeypatch):
    """Six squares mod 5^7 at the default budget: both methods, Gaussian and bump
    weights, T/T0 within 0.25 and direct and spectral T within 1e-9."""
    monkeypatch.delenv("CONGRUENCE_LAB_BUDGET", raising=False)
    base = ["count", "--mode", "inhom", "--lambda", "1", "1", "1", "1", "1", "1", "2",
            "--p", "5", "--m", "7", "--theta", "0.55"]
    for weight in ([], ["--weight", "bump", "--radius", "0.5"]):
        T = {}
        for method in ("direct", "spectral"):
            code, out, err = run_main(base + weight + ["--method", method])
            assert code == 0, err
            report = json.loads(out)
            assert abs(report["T"] / report["T0"] - 1.0) <= 0.25
            T[method] = report["T"]
        assert abs(T["spectral"] - T["direct"]) <= 1e-9 * T["direct"], weight


def test_six_square_asymptotic_at_5_9_default_budget_and_5_11_refused(monkeypatch):
    """Six squares mod 5^9 fit the default budget once it charges the transforms
    that run (two, for one distinct coefficient) and the dual kernel per level:
    both methods and weights, T/T0 within 0.25, direct and spectral T within
    1e-9.  Mod 5^11 the estimate stays far over the budget (exit 3)."""
    monkeypatch.delenv("CONGRUENCE_LAB_BUDGET", raising=False)
    base = ["count", "--mode", "inhom", "--lambda", "1", "1", "1", "1", "1", "1", "2",
            "--p", "5", "--theta", "0.55"]
    for weight in ([], ["--weight", "bump", "--radius", "0.5"]):
        T = {}
        for method in ("direct", "spectral"):
            code, out, err = run_main(base + ["--m", "9", "--method", method] + weight)
            assert code == 0, err
            report = json.loads(out)
            assert abs(report["T"] / report["T0"] - 1.0) <= 0.25
            T[method] = report["T"]
            code, _, err = run_main(base + ["--m", "11", "--method", method] + weight)
            assert code == 3 and "budget" in err, (method, weight)
        assert abs(T["spectral"] - T["direct"]) <= 1e-9 * T["direct"], weight


def test_small_box_at_large_q_runs_the_join_at_the_default_budget(monkeypatch):
    """Mod 5^10 at theta = 0.3 the histogram would charge ~4.7e8 ops; the join runs."""
    monkeypatch.delenv("CONGRUENCE_LAB_BUDGET", raising=False)
    code, out, err = run_main([*INHOM_COUNT[:-1], "10", "--theta", "0.3"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["strategy"] == "enumerate"
    assert report["T"] == pytest.approx(3.9983918279252135, rel=1e-13)


def test_strategy_is_not_an_option(tmp_path):
    assert run_main([*INHOM_COUNT, "--N", "25", "--strategy", "histogram"])[0] == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy=enumerate\n")
    code, out, err = run_main([*INHOM_COUNT, "--N", "25", "--config", str(cfg)])
    assert code == 2 and out == "" and "strategy" in err


@pytest.mark.parametrize("args", [
    ["expsum-scan", "--p", "1000000007", "--s-range", "2..2", "--trials", "1", "--k-cap", "10"],
    ["density", "B", "--lambda", "7", "9", "7", "--p", "1000000007"],
])
def test_prime_past_the_bound_is_a_validation_error(args):
    """p >= 2^20 is refused before any table of length p is built."""
    code, out, err = run_main(args)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "below 2^20" in err


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


def test_config_file_values_are_parsed_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=10\n")
    code, _, err = run_main([*INHOM_COUNT, "--N", "25", "--config", str(cfg)])
    assert code == 3 and "budget" in err
    cfg.write_text("theta=0.6\n")
    code, out, _ = run_main([*INHOM_COUNT, "--config", str(cfg)])
    assert code == 0 and json.loads(out)["N"] == math.ceil(25**0.6)


def test_config_file_unknown_key_is_an_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=3\n")
    code, out, err = run_main([*INHOM_COUNT, "--N", "25", "--config", str(cfg)])
    assert code == 2 and out == "" and "bogus" in err


def test_config_file_supplies_required_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda=1 1 2\n")
    rest = ["--p", "5", "--m", "2", "--N", "25", "--config", str(cfg)]
    code, out, _ = run_main(["count", "--mode", "inhom", *rest])
    assert code == 0 and json.loads(out)["inhomogeneous_term"] == 2
    code, out, _ = run_main(["count", "--mode", "inhom", "--lambda", "1", "1", "3", *rest])
    assert code == 0 and json.loads(out)["inhomogeneous_term"] == 3
    # flags are spelled in full, so an abbreviation cannot slip past "flags win"
    assert run_main(["count", "--mode", "inhom", "--lam", "1", "1", "3", *rest])[0] == 2
    # a list from the file must not swallow the verb's positional argument
    cfg.write_text("deltas=1 1\n")
    args = ["--p", "3", "--m", "5", "--N", "10"]
    code, out, _ = run_main(["tau", "2", *args, "--config", str(cfg)])
    assert code == 0
    assert out == run_main(["tau", "2", "--deltas", "1", "1", *args])[1]


@pytest.mark.parametrize("args, flag", [
    ([*INHOM_COUNT, "--N", "inf"], "--N"),
    (["tau", "2", "--deltas", "1", "1", "--p", "3", "--m", "5", "--N", "inf"], "--N"),
    ([*INHOM_COUNT, "--theta", "1000"], "--theta"),
    ([*INHOM_COUNT, "--theta", "nan"], "--theta"),
    (["expsum-scan", "--p", "3", "--s-range", "5..2"], "--s-range"),
    (["expsum-scan", "--p", "3", "--s-range", "x..2"], "--s-range"),
    (["verify-asymptotic", "--mode", "hom", "--lambda", "1", "1", "1", "1", "--p", "3",
      "--m-range", "6..3", "--theta", "0.6"], "--m-range"),
])
def test_bad_scale_or_range_is_a_validation_error(args, flag):
    code, out, err = run_main(args)
    assert code == 2 and out == ""
    assert "Traceback" not in err and flag in err


@pytest.mark.parametrize("flag, value, name", [("--c-max", "0", "c_max"), ("--k-cap", "0", "k_cap"), ("--k-cap", "-5", "k_cap")])
def test_scan_c_max_and_k_cap_below_one_are_validation_errors(flag, value, name):
    code, out, err = run_main(["expsum-scan", "--p", "3", "--s-range", "2..3", "--trials", "2", flag, value])
    assert code == 2 and out == ""
    assert "Traceback" not in err and name in err


# good values first and more often: hypothesis shrinks toward the start of each list
_NUMBERS = st.sampled_from(["25", "0.5", "3", "9", "0.7", "1000", "1e308", "1e-300", "0", "-1", "inf", "nan", "abc"])
_SMALL_INTS = st.integers(-3, 8).map(str)
_COEFFS = st.sampled_from(["1", "2", "1", "2", "4", "-1", "3", "0"])
_PRIMES = st.sampled_from(["3", "5", "3", "5", "7", "2", "9", "0", "-5"])
_EXPONENTS = st.sampled_from(["2", "3", "1", "2", "3", "0", "-1"])
_RANGES = st.sampled_from(["2..3", "1..2", "2..2", "3..2", "x..2", "2", "..", "-1..1"])


@st.composite
def _argv(draw):
    """An argv drawn from a small grammar of every verb but selftest, good and bad values mixed."""
    coeffs = lambda lo, hi: [draw(_COEFFS) for _ in range(draw(st.integers(lo, hi)))]  # noqa: E731
    scale = draw(st.sampled_from([["--N"], ["--theta"], []]))
    scale = scale + [draw(_NUMBERS)] if scale else []
    weight = draw(st.sampled_from([[], ["--weight", "bump"], ["--sigma"], ["--weight", "sharp"], ["--radius"]]))
    if weight[-1:] in (["--sigma"], ["--radius"]):
        weight = weight + [draw(_NUMBERS)]
    p, m = ["--p", draw(_PRIMES)], ["--m", draw(_EXPONENTS)]
    verb = draw(st.sampled_from(["eval-gauss", "eval-kloosterman", "density", "count",
                                 "verify-asymptotic", "expsum-scan", "tau", "singular-series",
                                 "quad-count"]))
    if verb in ("eval-gauss", "eval-kloosterman"):
        args = [draw(_SMALL_INTS), draw(_SMALL_INTS), draw(_PRIMES), draw(_EXPONENTS)]
        if verb == "eval-kloosterman" and draw(st.booleans()):
            args.append("--salie")
    elif verb == "density":
        args = [draw(st.sampled_from("ABC")), "--lambda", *coeffs(1, 4), *p]
    elif verb == "count":
        args = ["--mode", draw(st.sampled_from(["inhom", "hom"])), "--lambda", *coeffs(1, 4), *p, *m,
                *scale, *weight, *draw(st.sampled_from([[], ["--method", "spectral"]]))]
    elif verb == "verify-asymptotic":
        args = ["--mode", draw(st.sampled_from(["inhom", "hom"])), "--lambda", *coeffs(1, 4), *p,
                "--m-range", draw(_RANGES), *scale, *weight]
    elif verb == "expsum-scan":
        args = [*p, "--s-range", draw(_RANGES), "--trials", draw(st.sampled_from(["1", "2", "0"])),
                "--k-cap", "100"]
    elif verb == "tau":
        args = [draw(_SMALL_INTS), "--deltas", *coeffs(1, 4), *p, *m, *scale, *weight]
    elif verb == "singular-series":
        args = [draw(_SMALL_INTS), "--deltas", *coeffs(3, 5), *p, "--q-max", draw(_SMALL_INTS)]
    else:
        args = ["--alphas", *coeffs(4, 4), "--b", draw(_SMALL_INTS), *p, "--s", draw(_EXPONENTS),
                "--M", draw(_SMALL_INTS)]
    return [verb, *args, "--budget", "20000"]


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_cli_grammar_exits_cleanly(argv):
    code, _, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err


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


def _fields(record) -> dict:
    """A record's fields by name, as its class declares them."""
    if dataclasses.is_dataclass(record):
        return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return dict(zip(record._fields, record))


_UNITS = st.sampled_from([1, 2, -1, 4, 7])
_WEIGHTS = {"gaussian": counting.GAUSSIAN, "bump": counting.BUMP_PAIR, "sharp": counting.SHARP_CUTOFF}


@st.composite
def _record_case(draw):
    """(argv, the library call whose record that argv reports) on small drawn inputs."""
    p = draw(st.sampled_from([3, 5, 7]))
    mod = PrimePowerModulus(p, draw(st.integers(1, 3)))
    unit = _UNITS.filter(lambda x: x % p)
    units = st.lists(unit, min_size=1, max_size=3)
    verb = draw(st.sampled_from(["count", "eval-gauss", "eval-kloosterman", "singular-series"]))
    if verb == "count":
        method = draw(st.sampled_from(["direct", "spectral"]))
        mode = "inhom" if method == "spectral" else draw(st.sampled_from(["inhom", "hom"]))
        weight = draw(st.sampled_from(["gaussian", "bump"] + (["sharp"] if method == "direct" else [])))
        lams = draw(units) + ([draw(unit)] if mode == "inhom" else [])
        N = draw(st.sampled_from([2.5, 6.0, 25.0]))
        form = DiagonalForm(tuple(lams[:-1]), lams[-1]) if mode == "inhom" else DiagonalForm(tuple(lams))
        w = counting.WeightSpec(_WEIGHTS[weight])
        if method == "spectral":
            call = lambda: counting.count_weighted_spectral(form, mod, N, w)  # noqa: E731
        else:
            kind = counting.UNIT_COORDS if mode == "inhom" else counting.NOT_ALL_ZERO
            call = lambda: counting.count_weighted_direct(form, mod, N, w, kind)  # noqa: E731
        argv = ["count", "--mode", mode, "--lambda", *map(str, lams), "--p", str(p), "--m", str(mod.m),
                "--N", str(N), "--method", method, "--weight", weight]
        return argv, call
    if verb == "singular-series":
        k, q_max = draw(st.integers(-5, 30)), draw(st.integers(1, 40))
        deltas = draw(st.lists(unit, min_size=4, max_size=6))
        argv = ["singular-series", str(k), "--deltas", *map(str, deltas), "--p", str(p), "--q-max", str(q_max)]
        return argv, lambda: singular_series(k, DualForm(tuple(deltas)), p, q_max)
    a, b = draw(st.integers(-2 * p, mod.q)), draw(st.integers(-2 * p, mod.q))  # p | a, p | b often
    argv = [verb, str(a), str(b), str(p), str(mod.m)]
    if verb == "eval-gauss":
        return argv, lambda: charsums.gauss_sum_closed(a, b, mod)
    salie = draw(st.booleans())
    return argv + ["--salie"] * salie, lambda: (charsums.salie_closed if salie else charsums.kloosterman_closed)(a, b, mod)


@settings(max_examples=120, deadline=None)
@given(_record_case())
def test_report_is_the_records_fields(case):
    """Each verb's report holds its library record's fields under their names:
    a count with its weight as the kind, a closed sum with its terms as
    {coeff, phase_num} (and a zero sum as is_zero alone), a series under k."""
    argv, call = case
    code, out, err = run_main(argv)
    try:
        record = call()
    except UnsupportedCase as exc:
        assert code == 0, err
        assert json.loads(out)["closed_form"] == {"unsupported": str(exc)}
        return
    assert code == 0, err
    verb = argv[0]
    if verb == "count":
        assert all(type(v) is int for v in record.cost.values()), record.cost
        want = {**_fields(record), "weight": record.weight.kind}
    elif verb == "singular-series":
        want = {"k": int(argv[1]), **_fields(record)}
    else:
        closed = {"is_zero": True} if record.is_zero else _fields(record)
        if verb == "eval-kloosterman" and not record.is_zero:
            closed["terms"] = [{"coeff": c, "phase_num": ph} for c, ph in record.terms]
        value = record.to_complex()
        want = {"re": value.real, "im": value.imag, "closed_form": closed}
        if verb == "eval-gauss":  # canonical_json writes a complex as {"re", "im"}
            want["bruteforce"] = charsums.gauss_sum_bruteforce(*map(int, argv[1:3]), int(argv[3]) ** int(argv[4]))
    assert json.loads(out) == json.loads(canonical_json(want)), argv
