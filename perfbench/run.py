"""Benchmark of the horoflow experiment runner, end to end.

    python3 perfbench/run.py --workload trial-sweep --seed 11 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 25 --trace 1

Run from anywhere inside a source checkout: the program is imported from
the checkout's ``src``.  Each run spawns several set-up-only processes to
time spawn-to-ready (``setup_s`` is their median), then one workload
process that runs warm passes of the workload's jobs for ``--seconds``,
checks every job's output and reports pass times rescaled to a reference
host speed (``wall_ref_s``, ``cpu_ref_s``; see ``workload.probe``).  ``--trace 1`` spends half the time
on untraced passes and half on traced ones and prints the per-layer
metrics instead.  ``--short`` swaps in tiny job lists for quick self-tests.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Without a ``src/horoflow`` beside this directory
it exits 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SPAWNS = 8        # plus the workload process itself
DEADLINE_S = 170.0      # one run must end within 180 s
# thread settings removed from the workload's environment, so the program's
# and the BLAS library's own defaults apply
UNSET = ("HOROFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
         "MKL_NUM_THREADS")


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, timeout):
    """Run a workload process; returns (its result dict, monotonic spawn time)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py")] + argv
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {' '.join(argv)}")
    return json.loads(out.strip().splitlines()[-1]), t0


def run_workload(workload, seed, seconds, trace, short):
    """One benchmark run of one workload.

    Returns (attempted, failures, metrics, shown, env, absent): ``metrics``
    go into the result line, ``shown`` are printed only.
    """
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)] + (["--short"] if short else [])
    setups = []
    for _ in range(SETUP_SPAWNS):
        res, t0 = spawn(base, DEADLINE_S - (time.monotonic() - start))
        setups.append(res["ready"] - t0)
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root)
    try:
        res, t0 = spawn(base + ["--seconds", str(seconds), "--trace", str(trace), "--out", out],
                        DEADLINE_S - (time.monotonic() - start))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass    # another run's directory is still there
    setups.append(res["ready"] - t0)
    med = statistics.median
    if trace:
        metrics = res["trace"]
    else:
        metrics = {
            "wall_ref_s": {"value": med(res["wall_ref"]), "unit": "s"},
            "cpu_ref_s": {"value": med(res["cpu_ref"]), "unit": "s"},
            "setup_s": {"value": med(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    # as measured, before rescaling to the reference host speed; printed only
    shown = {
        "wall_s": {"value": med(res["wall"]), "unit": "s"},
        "cpu_s": {"value": med(res["cpu"]), "unit": "s"},
        "probe_ms": {"value": 1e3 * med(res["probes"]), "unit": "ms"},
        "passes": {"value": len(res["wall"]), "unit": "count"},
    }
    return res["attempted"], res["failures"], metrics, shown, res["env"], res.get("absent", [])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny job lists: each workload runs in seconds")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "horoflow", "cli.py")):
        print(f"no horoflow sources under {SRC}", file=sys.stderr)
        return 2

    names = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, metrics = 0, [], {}
    for name in names:
        try:
            a, f, m, shown, env, absent = run_workload(name, args.seed, args.seconds,
                                                       args.trace, args.short)
        except (RuntimeError, ValueError, KeyError) as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        print(f"{name}: environment {json.dumps(env, sort_keys=True)}")
        if absent:
            print(f"{name}: absent trace targets (reported as 0): {', '.join(absent)}")
        for problem in f:
            print(f"{name}: FAILED {problem}")
        rows = dict(m, **shown, failed_frac={"value": len(f) / a, "unit": "ratio"})
        for key, v in rows.items():
            print(f"{name}: {key} {v['value']:.6g} {v['unit']}")
        attempted += a
        failures += f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
