"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Runs every job of every workload once at its short-mode size and requires
its check to pass, then perturbs each job's data table just past the
check's tolerance and requires the check to fail.  Exits 0 when both hold
for every job.
"""

import contextlib
import copy
import csv
import math
import os
import shutil
import sys
import tempfile

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _set(row, col, value):
    row[col] = repr(float(value))


def _add(rows, col, delta, where=lambda r: True):
    for r in rows:
        if where(r):
            _set(r, col, float(r[col]) + delta)


def perturb_resnet(cfg, rows):
    _add(rows, "v_hat", 1.2 * jobs.Z_MARGIN * 0.5 / math.sqrt(cfg["n"] * cfg["trials"]))


def perturb_tau_bounds(cfg, rows):
    _set(rows[0], "per_trial", 2.0 * jobs.LOG_PHI2 * 1.001)


def perturb_hyperbolic(cfg, rows):
    _add(rows, "gap", 0.05, where=lambda r: int(r["k"]) >= cfg["n"] / 10)


def perturb_pm1(cfg, rows):
    n = cfg["n"]
    se = math.sqrt((n - jobs.abs_walk_mean(n) ** 2) / cfg["trials"]) / n
    # whole steps of 2/n keep every a(n) a valid |S_n|
    shift = 2.0 * math.ceil(jobs.Z_MARGIN * se * n / 2.0 + 1.0) / n
    _add(rows, "per_trial", shift)
    _add(rows, "lambda_hat", shift)


def perturb_segal(cfg, rows):
    lhs = float(rows[0]["lhs"])
    _set(rows[0], "rhs", lhs - 1e-9 * max(1.0, lhs))
    _set(rows[0], "slack", float(rows[0]["rhs"]) - lhs)


def perturb_lipschitz(cfg, rows):
    _set(rows[0], "profile", 1.01 / int(rows[0]["depth"]))


def perturb_oseledets(cfg, rows):
    _add(rows[1:], "exponent", 1e-6)


def perturb_tau_vs_qr(cfg, rows):
    shift = 2.0 * (jobs.LOG3 + 0.01) / cfg["n"]
    _add(rows, "per_trial", shift)
    _add(rows, "tau_hat", shift)


def perturb_filtration(cfg, rows):
    _add(rows[:1], "rate", 2.0 / cfg["n"])


def perturb_jacobian(cfg, rows):
    for r in rows[-1:]:
        _set(r, "ratio", float(r["ratio"]) + 1e-8)
        _set(r, "a", float(r["a"]) + 1e-8 * int(r["k"]))


def perturb_max_stretch(cfg, rows):
    _set(rows[-1], "lambda_hat", float(rows[-1]["lambda_hat"]) * 1.06)


def perturb_axioms(cfg, rows):
    _set(rows[0], "max_triangle_violation", 2e-9)


PERTURB = {
    ("trial-sweep", "resnet-drift"): perturb_resnet,
    ("trial-sweep", "operator-tau"): perturb_tau_bounds,
    ("trial-sweep", "hyperbolic-walk"): perturb_hyperbolic,
    ("trial-sweep", "top-exponent"): perturb_pm1,
    ("trial-sweep", "segal-sweep"): perturb_segal,
    ("trial-sweep", "lipschitz-profile"): perturb_lipschitz,
    ("long-orbit", "oseledets-spectrum"): perturb_oseledets,
    ("long-orbit", "operator-tau"): perturb_tau_vs_qr,
    ("long-orbit", "hyperbolic-walk"): perturb_hyperbolic,
    ("long-orbit", "filtration-probe"): perturb_filtration,
    ("long-orbit", "jacobian-cocycle"): perturb_jacobian,
    ("long-orbit", "max-stretch"): perturb_max_stretch,
    ("metric-suite", "metric-axioms"): perturb_axioms,
}


def main():
    import horoflow.cli as cli
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    out = tempfile.mkdtemp(prefix="selfcheck-", dir=out_root)
    errors = []
    try:
        for workload in jobs.WORKLOADS:
            job_list = jobs.workload_jobs(workload, short=True)
            tables, configs = {}, {}
            for job in job_list:
                cfg = dict(job.config, seed=7, output_dir=os.path.join(out, workload, job.label))
                configs[job.label] = cfg
                with contextlib.redirect_stdout(None):
                    code = cli.run(cfg)
                if code != 0:
                    errors.append(f"{workload}/{job.label}: exit {code}")
                    continue
                path = os.path.join(cfg["output_dir"], f"{cfg['experiment']}-7.csv")
                with open(path, newline="") as fh:
                    tables[job.label] = list(csv.DictReader(fh))
            for job in job_list:
                if job.label not in tables:
                    continue
                cfg = configs[job.label]
                problems = job.check(cfg, tables[job.label], tables)
                if problems:
                    errors.append(f"{workload}/{job.label}: clean output fails: {problems}")
                bad = copy.deepcopy(tables)
                PERTURB[(workload, job.label)](cfg, bad[job.label])
                if not job.check(cfg, bad[job.label], bad):
                    errors.append(f"{workload}/{job.label}: perturbed output passes")
                print(f"{workload}/{job.label}: checked")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(out_root)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
