"""One workload process: set up, run warm passes, check outputs, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up ends when
``horoflow.cli`` is imported and every job config is built and validated;
the process then records the ``time.monotonic()`` reading of that moment,
so the parent can time spawn-to-ready.  Passes run the workload's jobs back
to back through ``horoflow.cli.run``: a closed loop with one caller and no
think time.  Before the first job of a pass and after every job, a fixed
probe reads the host's current speed (see ``probe``).  The last line on
stdout is one JSON object for the parent.
"""

import argparse
import contextlib
import csv
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import jobs

# the probe time of a host at reference speed: a job's time is rescaled by
# (PROBE_REF_S / probe time measured around it) ** PROBE_EXP
PROBE_REF_S = 0.003
# in the host's slow stretches the program slows less than the probe: the
# log-log slope of job time on probe time over 5-minute runs of back-to-back
# passes was 0.4-0.95 by job, 0.73 (long-orbit) and 0.8 (trial-sweep)
# weighted by time; 1.0 over-corrected long-orbit by about 15%
PROBE_EXP = 0.8
_PROBE_M = np.array([[2.0, 1.0], [1.0, 1.0]])


def _probe_work():
    # the program's mix: tiny numpy products and float arithmetic in Python
    m, s, d = np.eye(2), 0.0, {}
    for i in range(1500):
        m = m @ _PROBE_M
        m = m / m[0, 0]
        s += math.log1p(i) * (i % 7)
        d[i % 64] = s
    return s


def probe():
    """Fastest of three timings of a fixed piece of work, about 3 ms each.

    A shared host runs the same code up to three quarters slower in
    stretches that last seconds to minutes, in CPU time as much as in wall
    time.  Probes taken around each job track this, so rescaling a job's
    time by ``PROBE_REF_S`` over the probe time, to the power ``PROBE_EXP``,
    removes most of it.  The probe does not touch the program, so a change
    to the program moves the rescaled time in full.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if gc_was_on:
            gc.enable()


def _rusage_cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment():
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")
                    if deps[k].get(f) is not None}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, AttributeError):
        pass    # numpy < 1.25 has no dict form
    return {"nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "HOROFLOW_THREADS": os.environ.get("HOROFLOW_THREADS")}


class Pass:
    """Runs one workload's jobs into fixed output directories and checks them."""

    def __init__(self, cli, job_list, seed, out_root):
        self.cli = cli
        self.jobs = job_list
        self.configs = []
        for i, job in enumerate(job_list):
            cfg = dict(job.config, seed=seed,
                       output_dir=os.path.join(out_root, f"{i:02d}-{job.label}"))
            diags = cli.validate(cfg)
            if diags:
                print(f"{job.label}: config rejected: {diags}", file=sys.stderr)
            self.configs.append(cfg)
        self.attempted = 0
        self.failures = []

    def run(self):
        """Run every job once, each between two probes.

        Returns a dict of the pass's wall and CPU seconds (``wall``,
        ``cpu``), the same rescaled to the reference host speed job by job
        (``wall_ref``, ``cpu_ref``), the probe times and the output bytes.
        """
        codes, probes = [], [probe()]
        t = dict.fromkeys(("wall", "cpu", "wall_ref", "cpu_ref"), 0.0)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for cfg in self.configs:
                cpu0 = _rusage_cpu()
                t0 = time.perf_counter()
                try:
                    # looked up per call so a traced pass goes through the span
                    codes.append(self.cli.run(cfg))
                except Exception:
                    codes.append(traceback.format_exc(limit=3))
                wall = time.perf_counter() - t0
                cpu = _rusage_cpu() - cpu0
                probes.append(probe())
                scale = (PROBE_REF_S / statistics.fmean(probes[-2:])) ** PROBE_EXP
                t["wall"] += wall
                t["cpu"] += cpu
                t["wall_ref"] += wall * scale
                t["cpu_ref"] += cpu * scale
        return dict(t, probes=probes, bytes=self._check(codes))

    def _check(self, codes):
        tables = {}
        for job, cfg, code in zip(self.jobs, self.configs, codes):
            path = os.path.join(cfg["output_dir"], f"{cfg['experiment']}-{cfg['seed']}.csv")
            if code == 0 and os.path.exists(path):
                with open(path, newline="") as fh:
                    tables[job.label] = list(csv.DictReader(fh))
        size = 0
        for job, cfg, code in zip(self.jobs, self.configs, codes):
            self.attempted += 1
            if code != 0:
                problems = [f"exit {code}"]
            elif job.label not in tables:
                problems = ["no data table"]
            else:
                try:
                    problems = job.check(cfg, tables[job.label], tables)
                except (KeyError, ValueError, IndexError, ZeroDivisionError) as e:
                    problems = [f"unreadable table: {e!r}"]
            if problems:
                self.failures.append(f"{job.label}: {'; '.join(map(str, problems))}")
            for name in os.listdir(cfg["output_dir"]) if os.path.isdir(cfg["output_dir"]) else ():
                size += os.path.getsize(os.path.join(cfg["output_dir"], name))
        return size


def timed_passes(p, window, min_passes):
    """Whole passes until the next would end after ``window`` seconds.

    Returns a dict of lists with one entry per pass (the keys of
    ``Pass.run``), with ``probes`` flattened.
    """
    passes = []
    start = time.monotonic()
    while True:
        passes.append(p.run())
        spent = time.monotonic() - start
        if len(passes) >= min_passes and spent + spent / len(passes) > window:
            out = {k: [r[k] for r in passes] for k in passes[0]}
            out["probes"] = [x for r in passes for x in r["probes"]]
            return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--out", help="output directory; omitted, stop once set up")
    args = ap.parse_args()

    import horoflow.cli as cli
    src = os.environ.get("PYTHONPATH", "")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"horoflow imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    job_list = jobs.workload_jobs(args.workload, short=args.short)
    out = args.out or os.devnull
    warm = Pass(cli, jobs.workload_jobs(args.workload, short=True), args.seed,
                os.path.join(out, "warmup"))
    main_pass = Pass(cli, job_list, args.seed, os.path.join(out, "pass"))
    ready = time.monotonic()
    if args.out is None:
        print(json.dumps({"ready": ready}))
        return 0

    # lazy imports and first-call costs land here, not in a timed pass
    warm.run()
    result = {"ready": ready, "env": environment()}
    if args.trace == 0:
        timed = timed_passes(main_pass, args.seconds, min_passes=3)
    else:
        from tracer import Tracer
        timed = timed_passes(main_pass, args.seconds / 2, min_passes=2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(main_pass, args.seconds / 2, min_passes=1)
        finally:
            tracer.uninstall()
        layer = tracer.metrics(len(traced["wall"]), sum(traced["wall"]))
        layer["cli.output_bytes"] = (statistics.fmean(traced["bytes"]), "bytes")
        # rescaled, so host drift between the two halves cancels
        layer["trace.overhead_s"] = (
            statistics.median(traced["wall_ref"]) - statistics.median(timed["wall_ref"]), "s")
        result["trace"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["absent"] = tracer.absent
    del timed["bytes"]
    result.update(
        timed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=warm.attempted + main_pass.attempted,
        failures=warm.failures + main_pass.failures)
    print(json.dumps(result), file=sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
