"""Registry, config validation, output artifacts, and exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

import horoflow
from horoflow.cli import (EXIT_CONFIG, EXIT_OK, EXIT_TRUNCATION, EXPERIMENTS,
                          fmt, list_experiments, main, run, validate)
from horoflow.seeding import GENERATOR_NAME

from test_acceptance import _SMALL_CONFIGS


def test_registry_is_complete_and_sorted():
    names = [row[0] for row in list_experiments()]
    assert names == sorted(EXPERIMENTS)
    assert len(names) == 12
    for name in ("hyperbolic-walk", "top-exponent", "oseledets-spectrum",
                 "filtration-probe", "operator-tau", "state-ratio",
                 "segal-sweep", "resnet-drift", "lipschitz-profile",
                 "max-stretch", "jacobian-cocycle", "metric-axioms"):
        assert name in EXPERIMENTS


def test_fmt_canonical_forms():
    assert fmt(True) == "1"
    assert fmt(3) == "3"
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt("x") == "x"


def test_validate_diagnostics():
    assert validate({}) == ["experiment: missing"]
    assert validate({"experiment": "nope"}) == ["experiment: unknown name 'nope'"]
    diags = validate({"experiment": "top-exponent"})
    assert "seed: missing" in diags
    diags = validate({"experiment": "top-exponent", "seed": -1})
    assert any(d.startswith("seed:") for d in diags)
    diags = validate({"experiment": "top-exponent", "seed": 0, "n": 0})
    assert any(d.startswith("n:") for d in diags)
    # every declared default lies in its domain
    for name in EXPERIMENTS:
        assert validate({"experiment": name, "seed": 0}) == []


def _tiny_config(tmp_path, **extra):
    cfg = {"experiment": "top-exponent", "seed": 1, "preset": "translation",
           "n": 50, "trials": 2, "output_dir": str(tmp_path)}
    cfg.update(extra)
    return cfg


def test_run_writes_csv_and_manifest(tmp_path):
    assert run(_tiny_config(tmp_path)) == EXIT_OK
    data = (tmp_path / "top-exponent-1.csv").read_text()
    lines = data.splitlines()
    assert lines[0] == "trial,per_trial,lambda_hat,std_error,tail_slope"
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "top-exponent-1.manifest.json").read_text())
    assert manifest["generator"] == GENERATOR_NAME
    assert manifest["truncations"] == 0
    assert manifest["data_file"] == "top-exponent-1.csv"


def test_run_writes_jsonl(tmp_path):
    assert run(_tiny_config(tmp_path, output_format="jsonl")) == EXIT_OK
    rows = [json.loads(line) for line in
            (tmp_path / "top-exponent-1.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["trial"] == 0
    assert float(rows[0]["lambda_hat"]) == 1.0


def test_run_rejects_bad_config(tmp_path, capsys):
    for bad in ({"experiment": "nope", "seed": 0},
                _tiny_config(tmp_path, output_format="xml"),
                _tiny_config(tmp_path, preset="nope"),
                {"experiment": "hyperbolic-walk", "mobius_a": 1.5},
                {"experiment": "oseledets-spectrum", "trial": -1},
                {"experiment": "operator-tau", "preset": "rotation",
                 "rotation_angle": "x"},
                {"experiment": "resnet-drift", "activation": "foo"},
                {"experiment": "resnet-drift", "d": 0},
                {"experiment": "max-stretch", "grid": 0},
                {"experiment": "lipschitz-profile", "depth": 0},
                {"experiment": "hyperbolic-walk", "mobius_a2": 0.3, "weight": 2.0},
                {"experiment": "hyperbolic-walk", "probe_budget": 0},
                {"experiment": "resnet-drift", "b_support": []},
                {"experiment": "resnet-drift", "b_support": ["x"]},
                {"experiment": "operator-tau", "diag": ["a", 1]},
                {"experiment": "state-ratio", "checkpoints": 5},
                {"experiment": "segal-sweep", "dim": 0},
                {"experiment": "segal-sweep", "pairs": 0},
                {"experiment": "segal-sweep", "scale": "x"},
                {"experiment": "metric-axioms", "samples": 0},
                {"experiment": "metric-axioms", "samples": -1},
                {"experiment": "metric-axioms", "samples": "x"},
                {"experiment": "metric-axioms", "samples": 2.5},
                {"experiment": "jacobian-cocycle", "mobius_a": 1.5},
                {"experiment": "jacobian-cocycle", "preset": "sine", "amplitude": 2.0},
                {"experiment": "top-exponent", "nn": 5},
                {"experiment": "hyperbolic-walk", "mobius_a": "x"},
                {"experiment": "top-exponent", "preset": "disk_mobius", "mobius_a": "x"},
                {"experiment": "filtration-probe", "cluster_tol": "x"},
                {"experiment": "filtration-probe", "cluster_tol": -1.0},
                {"experiment": "max-stretch", "mobius_a": 1.5},
                {"experiment": "max-stretch", "grid": 2.5},
                {"experiment": "segal-sweep", "pairs": True},
                {"experiment": "segal-sweep", "seed": True},
                {"experiment": "segal-sweep", "n": 1},
                {"experiment": "segal-sweep", "output_dir": 5}):
        bad = {"seed": 1, "output_dir": str(tmp_path), **bad}
        assert run(bad) == EXIT_CONFIG
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("config error:") == 2
        assert main(["--config", str(cfg_path), "--validate-only"]) == EXIT_CONFIG
        assert capsys.readouterr().out
    # a config document that is not a JSON object
    cfg_path.write_text("[1, 2]")
    assert run([1, 2]) == EXIT_CONFIG
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    assert main(["--config", str(cfg_path), "--validate-only"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("config error:") == 3
    # no run wrote a table or a manifest
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.filterwarnings("error")
def test_run_reports_run_time_errors(tmp_path, capsys):
    # values the schema accepts that fail only once the experiment runs:
    # --validate-only passes them, run and main exit 2 with no table written
    afile = tmp_path / "afile"
    afile.write_text("")
    out = tmp_path / "out"
    for bad in ({"experiment": "segal-sweep", "scale": 1e3, "pairs": 2},
                {"experiment": "segal-sweep", "scale": 1e308, "pairs": 2},
                {"experiment": "filtration-probe", "diag": [0.0, 1.0]},
                # the relu chain overflows; then the spread of the trials'
                # finite outputs does
                {"experiment": "resnet-drift", "b_support": [1e308, 1e308], "n": 3,
                 "trials": 2},
                {"experiment": "resnet-drift", "b_support": [1e307, -1e307], "n": 1,
                 "trials": 4},
                {"experiment": "segal-sweep", "pairs": 2, "output_dir": str(afile)}):
        bad = {"seed": 1, "output_dir": str(out), **bad}
        assert run(bad) == EXIT_CONFIG
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("config error:") == 2
        assert main(["--config", str(cfg_path), "--validate-only"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "bad.json", "out"]
    assert afile.read_text() == ""


_MATRIX_EXPERIMENTS = ("filtration-probe", "oseledets-spectrum", "operator-tau",
                       "state-ratio")


def _run_table(tmp_path, experiment, diag, **overrides):
    """The rows of a seed-1 run's table, as dicts of floats."""
    cfg = {"experiment": experiment, "seed": 1, "diag": diag,
           "output_dir": str(tmp_path), **overrides}
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / f"{experiment}-1.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diag", ([1e-7, 1e-7], [1e8, 1e-8]))
@pytest.mark.parametrize("experiment", _MATRIX_EXPERIMENTS)
def test_run_accepts_a_small_scaled_identity(tmp_path, experiment, diag):
    # the screen refuses only a matrix with no finite inverse: a small scaled
    # identity, and diag [1e8, 1e-8] of condition number 1e16, give exact
    # rates; ||log(v(n)^T v(n))|| / n is twice the largest modulus
    a, b = map(math.log, diag)
    tau = 2.0 * max(abs(a), abs(b))
    # probes e1, e2 and e1 + e2; the last, at n 1000, loses log(sqrt 2) / n
    # to its weak direction when the entries differ
    mixed = max(a, b) - (0.0 if a == b else math.log(2.0) / 2000)
    columns = {"filtration-probe": {"rate": [a, b, mixed]},
               "oseledets-spectrum": {"exponent": sorted((a, b), reverse=True)},
               "operator-tau": {"per_trial": [tau] * 10, "tau_hat": [tau] * 10},
               "state-ratio": {"ratio": [tau] * 3, "tau_hat": [tau] * 3}}
    rows = _run_table(tmp_path, experiment, diag)
    for column, want in columns[experiment].items():
        assert [row[column] for row in rows] == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_run_accepts_scaled_identities_at_the_double_range(tmp_path):
    # up to dim 3 the spectrum multiplies only the steps and their inverse
    # transposes, so every diag the screen passes runs.  The exponent 0 of
    # [1e-301, 1, 1e301] is the second row, which steps by the rounded
    # inverse of 1e301 where the first steps by 1e-301: it reads about
    # -9e-17.  Past the default n's two, n 2000 keeps the run short: each
    # step of these is a one-step block
    for diag, n in (([1e-301, 1e-301], 100000), ([1e-301, 1e301], 100000),
                    ([1e200, 1e200, 1e-300], 2000), ([1e-300, 1e200, 1e200], 2000),
                    ([1e-301, 1.0, 1e301], 2000), ([1.7e308, 1e-308], 2000)):
        rows = _run_table(tmp_path, "oseledets-spectrum", diag, n=n)
        assert [row["exponent"] for row in rows] == pytest.approx(
            sorted(map(math.log, diag), reverse=True), rel=1e-9, abs=1e-15)
    # growth rates rescale by powers of two, so a step norm past the square
    # root of the double range runs: e1 and e2 grow at the log of their
    # diagonal entry, and e1 + e2 as in test_run_accepts_a_small_scaled_identity
    for diag in ([1e-301, 1e-301], [1e-301, 1e301], [1e155, 1.0]):
        a, b = map(math.log, diag)
        mixed = max(a, b) - (0.0 if a == b else math.log(2.0) / 2000)
        rows = _run_table(tmp_path, "filtration-probe", diag)
        assert [row["rate"] for row in rows] == pytest.approx([a, b, mixed], rel=1e-9,
                                                              abs=0.0)
    # the inverses of 1e308 and 1e-301 are representable, so the operator
    # tracks are too
    for diag in ([1e308, 1e308], [1e-301, 1e301]):
        assert len(_run_table(tmp_path, "operator-tau", diag)) == 10
        assert len(_run_table(tmp_path, "state-ratio", diag)) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("refused, message, runs", [
    # from dim 4 the spectrum's middle sums step by compounds: 2 x 2 minors
    # scaled by one power of two a matrix.  Beside the minor 1e400 of
    # [1, 1, 1e200, 1e200], the minor 1 falls below the double range; the
    # same entries with dim 2 or 3 run
    ([1.0, 1.0, 1e200, 1e200], "exterior power 2 of a step matrix leaves the double range",
     [1.0, 2.0, 1e100, 1e-100]),
    # past dim 4 the middle compound's C(d, d/2) rows a step cost more than
    # a QR step of the frame, so the run is refused before it draws
    ([1.0, 2.0, 3.0, 4.0, 5.0], "the spectrum runs up to dimension 4, not 5",
     [1.0, 2.0, 3.0, 4.0]),
])
def test_oseledets_refuses_past_its_range(tmp_path, capsys, refused, message, runs):
    cfg = {"experiment": "oseledets-spectrum", "seed": 1, "diag": refused,
           "output_dir": str(tmp_path)}
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []
    rows = _run_table(tmp_path, "oseledets-spectrum", runs, n=2000)
    assert [row["exponent"] for row in rows] == pytest.approx(
        sorted(map(math.log, runs), reverse=True), rel=1e-9, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment", _MATRIX_EXPERIMENTS)
def test_run_refuses_singular_diag(tmp_path, capsys, experiment):
    # a zero entry, and one whose inverse leaves the double range
    for diag in ([0.0, 1.0], [1e-310, 1.0]):
        cfg = {"experiment": experiment, "seed": 1, "diag": diag,
               "output_dir": str(tmp_path)}
        assert run(cfg) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: singular step matrix\n"
    assert list(tmp_path.iterdir()) == []


def test_run_reports_unwritable_outputs(tmp_path, capsys):
    # a directory where the data table or the manifest goes
    for case, blocked in enumerate(("segal-sweep-1.csv", "segal-sweep-1.manifest.json")):
        out = tmp_path / f"out{case}"
        (out / blocked).mkdir(parents=True)
        cfg = {"experiment": "segal-sweep", "pairs": 2, "seed": 1, "output_dir": str(out)}
        assert run(cfg) == EXIT_CONFIG
        cfg_path = tmp_path / f"cfg{case}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("config error: output_dir:") == 2
        assert err.count("\n") == 2
        # a table whose manifest could not be written is removed
        assert sorted(p.name for p in out.iterdir()) == [blocked]


def test_run_truncation_exit_code(tmp_path):
    # a constant hyperbolic map expels every disk orbit past the boundary
    cfg = {"experiment": "top-exponent", "seed": 0, "preset": "disk_mobius",
           "mobius_a": 0.5, "n": 200, "trials": 3, "output_dir": str(tmp_path)}
    assert run(cfg) == EXIT_TRUNCATION


def test_run_is_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert run(_tiny_config(d1, seed=9)) == EXIT_OK
    assert run(_tiny_config(d2, seed=9)) == EXIT_OK
    assert (d1 / "top-exponent-9.csv").read_bytes() == \
        (d2 / "top-exponent-9.csv").read_bytes()


def test_main_list_and_validate(tmp_path, capsys):
    assert main(["--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "top-exponent" in out
    listed = {line.split()[0]: line for line in out.splitlines()}
    assert "rotation_angle=" in listed["operator-tau"]
    assert "trials" not in listed["segal-sweep"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "top-exponent", "seed": 0}))
    assert main(["--config", str(cfg_path), "--validate-only"]) == EXIT_OK
    assert main(["--experiment", "nope", "--validate-only"]) == EXIT_CONFIG


def test_main_flags_override_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "top-exponent", "preset": "translation",
         "seed": 0, "n": 50, "trials": 1}))
    code = main(["--config", str(cfg_path), "--seed", "4",
                 "--out", str(tmp_path), "--format", "jsonl"])
    assert code == EXIT_OK
    assert (tmp_path / "top-exponent-4.jsonl").exists()


def test_main_reports_registry_on_unknown_experiment(tmp_path, capsys):
    assert main(["--experiment", "nope", "--seed", "0"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "registered experiments:" in err


def test_main_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == EXIT_CONFIG


# no experiment loads scipy: the Segal check takes its exponentials from
# numpy's eigh and a numpy Taylor path, the cone metrics their generalized
# eigenvalues from numpy's SVD, and the QR spectrum reads its exponent sums
# from growth rates and double-double determinants

# run in a fresh interpreter: argv[1] is the small configs as JSON,
# argv[2] the output directory; prints, last, whether scipy was loaded
# after each stage (a direct Segal check among them)
_STARTUP_PROBE = """
import json, sys
from horoflow.cli import EXPERIMENTS, main, run
from horoflow.operator_cone import segal_check

def scipy_loaded():
    return "scipy" in sys.modules

configs, out = json.loads(sys.argv[1]), sys.argv[2]
loaded = {"import": scipy_loaded()}
for name in EXPERIMENTS:
    assert main(["--experiment", name, "--seed", "5", "--validate-only"]) == 0
loaded["validate"] = scipy_loaded()
segal_check([[1.0, 0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
loaded["segal_check"] = scipy_loaded()
for name, overrides in configs.items():
    assert run({"experiment": name, "seed": 5, "output_dir": out, **overrides}) == 0
    loaded[name] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_no_experiment_loads_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(horoflow.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _STARTUP_PROBE,
         json.dumps(_SMALL_CONFIGS), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": False, "validate": False, "segal_check": False,
                      **{name: False for name in EXPERIMENTS}}
