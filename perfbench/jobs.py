"""Workload job lists and the output check of every job.

A job is one experiment config handed to ``horoflow.cli.run``.  Each
config sets only keys its runner reads; the benchmark adds ``seed`` and
``output_dir``.  Every check compares the job's data table with a value
computed another way (a closed form, an exact bound or a second
experiment on the same input), so it holds for any seed.
"""

import math
import statistics

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
# log of the spectral norm of both sl2_pair matrices: phi^2 = (3 + sqrt 5)/2
LOG_PHI2 = math.log((3.0 + math.sqrt(5.0)) / 2.0)
# statistical checks allow this many standard errors (two-sided normal
# tail 5.7e-7 per check), with the standard error known in closed form
Z_MARGIN = 5.0


class Job:
    def __init__(self, label, config, check):
        self.label = label          # unique within a workload
        self.config = config
        self.check = check          # check(cfg, rows, tables) -> list of problems


def _col(rows, name):
    return [float(r[name]) for r in rows]


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Checks.  rows are the job's data table as csv.DictReader dicts; tables maps
# every job label of the pass to its rows, for checks across jobs.

def check_resnet_drift(cfg, rows, tables):
    n, trials = cfg["n"], cfg["trials"]
    v = _col(rows, "v_hat")
    if len(v) != trials:
        return [f"{len(v)} rows for {trials} trials"]
    out = []
    # d=1, W=1, relu and x0=0: every layer adds its bias (0.5 or 1.5 with
    # equal odds), so v_hat is a mean of n biases: mean 1, sd 0.5/sqrt(n)
    if not all(0.5 <= x <= 1.5 for x in v):
        out.append("v_hat outside [0.5, 1.5]")
    se = 0.5 / math.sqrt(n * trials)
    gap = statistics.fmean(v) - 1.0
    if abs(gap) > Z_MARGIN * se:
        out.append(f"mean v_hat - 1 = {gap:.3e} is {gap / se:.1f} standard errors")
    if trials > 1:
        se_hat = statistics.stdev(v) / math.sqrt(trials)
        if not _rel_close(float(rows[0]["se"]), se_hat, 1e-9):
            out.append(f"reported se {rows[0]['se']} != recomputed {se_hat!r}")
    return out


def check_sl2_tau_bounds(cfg, rows, tables):
    n, trials = cfg["n"], cfg["trials"]
    tau = _col(rows, "per_trial")
    if len(tau) != trials:
        return [f"{len(tau)} rows for {trials} trials"]
    # both matrices dominate [[1,1],[1,1]] entrywise and have spectral norm
    # phi^2, so (n-1) log 2 <= log ||v(n)|| <= n log phi^2; det 1 makes the
    # inverse track equal, and tau = 2 log ||v(n)|| / n
    lo = 2.0 * LOG2 * (n - 1) / n * (1.0 - 1e-9)
    hi = 2.0 * LOG_PHI2 * (1.0 + 1e-9)
    out = []
    bad = [x for x in tau if not (math.isfinite(x) and x > 0.0 and lo <= x <= hi)]
    if bad:
        out.append(f"{len(bad)} per-trial tau outside [{lo:.6f}, {hi:.6f}], e.g. {bad[0]!r}")
    if not _rel_close(float(rows[0]["tau_hat"]), statistics.fmean(tau), 1e-12):
        out.append("tau_hat is not the mean of per_trial")
    return out


def check_hyperbolic_walk(cfg, rows, tables):
    n, trials = cfg["n"], cfg["trials"]
    out = []
    last = [r for r in rows if int(r["k"]) == n]
    if len(last) != trials:
        out.append(f"{len(last)} rows at k=n for {trials} trials")
    # the functional is anchored at u(n)x0, so gap(n) vanishes identically
    if any(abs(float(r["gap"])) > 1e-12 for r in last):
        out.append("gap(n) != 0")
    tail = [float(r["gap"]) for r in rows if int(r["k"]) >= n / 10]
    if not all(0.0 <= g < 0.05 for g in tail):
        out.append(f"tail gap {max(tail)!r} not in [0, 0.05)")
    return out


def abs_walk_mean(n):
    """E|S_n| of the simple +-1 walk, exactly: sum |2k-n| C(n,k) / 2^n."""
    return sum(abs(2 * k - n) * math.comb(n, k) for k in range(n + 1)) / (1 << n)


def check_pm1_walk(cfg, rows, tables):
    n, trials = cfg["n"], cfg["trials"]
    lam = _col(rows, "per_trial")
    if len(lam) != trials:
        return [f"{len(lam)} rows for {trials} trials"]
    out = []
    steps = [x * n for x in lam]
    if not all(abs(s - round(s)) <= 1e-9 * n and round(s) % 2 == n % 2 for s in steps):
        out.append("a(n) is not |S_n| for an n-step +-1 walk")
    mean_abs = abs_walk_mean(n)
    se = math.sqrt(max(n - mean_abs ** 2, 0.0) / trials) / n
    gap = statistics.fmean(lam) - mean_abs / n
    if abs(gap) > Z_MARGIN * se:
        out.append(f"lambda_hat - E|S_n|/n = {gap:.3e} is {gap / se:.1f} standard errors")
    if not _rel_close(float(rows[0]["lambda_hat"]), statistics.fmean(lam), 1e-12):
        out.append("lambda_hat is not the mean of per_trial")
    return out


def check_segal(cfg, rows, tables):
    if len(rows) != cfg["pairs"]:
        return [f"{len(rows)} rows for {cfg['pairs']} pairs"]
    out = []
    lhs, rhs, slack = _col(rows, "lhs"), _col(rows, "rhs"), _col(rows, "slack")
    if min(slack) < -1e-10:
        out.append(f"Segal inequality violated: slack {min(slack)!r}")
    if not all(_rel_close(s, r - l, 1e-12) for s, l, r in zip(slack, lhs, rhs)):
        out.append("slack != rhs - lhs")
    # two exponential paths agree relative to the exponential's size
    rel = max(g / max(1.0, l) for g, l in zip(_col(rows, "path_gap"), lhs))
    if rel > 1e-9:
        out.append(f"relative path gap {rel!r} > 1e-9")
    return out


def check_lipschitz(cfg, rows, tables):
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    depth, profile = int(rows[0]["depth"]), float(rows[0]["profile"])
    # a chain of depth nonexpansive layers is 1-Lipschitz (a relu chain may
    # collapse to a constant map, profile 0)
    if not 0.0 <= profile <= (1.0 + 1e-9) / depth:
        return [f"profile {profile!r} not in [0, 1/{depth}]"]
    return []


def check_oseledets_sl2(cfg, rows, tables):
    if len(rows) != 2:
        return [f"{len(rows)} rows, expected 2"]
    e = _col(rows, "exponent")
    out = []
    if e[0] < e[1]:
        out.append("exponents not sorted descending")
    # unit determinant: the exponents sum to zero
    if abs(e[0] + e[1]) > 1e-9:
        out.append(f"exponent sum {e[0] + e[1]!r} != 0")
    return out


def check_tau_vs_qr(cfg, rows, tables):
    """tau/2 = log||v(n)||/n against the QR exponent log||v(n) e1||/n.

    Both read the same matrix sequence.  log||v(n)|| >= log||v(n) e1||, and
    v(n) x <= 3 v(n) e1 entrywise for unit x >= 0 (the first step maps x
    below (3, 3) and e1 above (1, 1)), so 0 <= n (tau/2 - lambda_1) <= log 3.
    """
    out = check_sl2_tau_bounds(cfg, rows, tables)
    qr = tables.get("oseledets-spectrum")
    if not qr:
        return out + ["no oseledets-spectrum table to compare with"]
    n = cfg["n"]
    gap = n * (float(rows[0]["per_trial"]) / 2.0 - float(qr[0]["exponent"]))
    if not -1e-6 <= gap <= LOG3 + 1e-6:
        out.append(f"n (tau/2 - lambda_1) = {gap!r} not in [0, log 3]")
    return out


def check_filtration(cfg, rows, tables):
    n = cfg["n"]
    a, b = cfg["diag"]
    rates = _col(rows, "rate")
    if len(rates) != 3:
        return [f"{len(rates)} rows, expected 3"]
    # probes e1, e2, e1+e2 under diag(a, b): log a, log b, and log a less
    # at most log(sqrt 2)/n from the unit-normalized start
    want = (math.log(a), math.log(b), math.log(a))
    out = []
    if not all(abs(r - w) <= 1.0 / n for r, w in zip(rates, want)):
        out.append(f"rates {rates} != {want} within 1/n")
    clusters = [int(r["cluster"]) for r in rows]
    if not (clusters[0] == clusters[2] != clusters[1]):
        out.append(f"clusters {clusters} do not split {{e1, e1+e2}} from {{e2}}")
    return out


def check_jacobian_mobius(cfg, rows, tables):
    n = cfg["n"]
    if [int(r["k"]) for r in rows] != list(range(1, n + 1)):
        return ["rows are not k = 1..n"]
    # |log g'| peaks at log 3 at the fixed points 0 and pi of the a=1/2 map,
    # and the grid point 0 stays fixed, so a(k)/k = log 3 at every k
    out = []
    ratio = _col(rows, "ratio")
    worst = max(abs(r - LOG3) for r in ratio)
    if worst > 1e-9:
        out.append(f"a(k)/k deviates from log 3 by {worst!r}")
    if not all(_rel_close(float(r["a"]), int(r["k"]) * float(r["ratio"]), 1e-12)
               for r in rows):
        out.append("ratio != a/k")
    return out


def check_max_stretch_mobius(cfg, rows, tables):
    if not rows or int(rows[-1]["depth"]) != cfg["n"]:
        return ["no row at depth n"]
    lam = float(rows[-1]["lambda_hat"])
    z = complex(float(rows[-1]["z_re"]), float(rows[-1]["z_im"]))
    out = []
    # the a=1/2 map stretches most at its repelling fixed point -1, by 3
    if abs(lam - LOG3) / LOG3 > 0.05:
        out.append(f"lambda_hat {lam!r} not within 5% of log 3")
    if abs(z + 1.0) > 1e-2:
        out.append(f"z_hat {z!r} not within 1e-2 of -1")
    return out


AXIOM_TOL = {"max_identity_error": 1e-12, "max_triangle_violation": 1e-9,
             "max_lower_violation": 1e-9, "max_upper_violation": 1e-9,
             "max_continuity_violation": 1e-9}
METRICS = ("euclidean", "funk", "jacobian", "poincare", "stretch", "thompson")


def check_metric_axioms(cfg, rows, tables):
    if sorted(r["metric"] for r in rows) != list(METRICS):
        return [f"metrics {[r['metric'] for r in rows]} != {list(METRICS)}"]
    out = []
    for r in rows:
        if int(r["samples"]) != cfg["samples"]:
            out.append(f"{r['metric']}: {r['samples']} samples")
        for col, tol in AXIOM_TOL.items():
            if not float(r[col]) <= tol:
                out.append(f"{r['metric']}: {col} {r[col]} > {tol}")
    return out


# ---------------------------------------------------------------------------
# Workloads.  size(full, short) picks the full or the short-mode value.

TWO_MAPS = {"mobius_a": 0.5, "mobius_a2": "0.3+0.2j"}
RESNET = {"d": 1, "activation": "relu", "b_support": [0.5, 1.5]}


def workload_jobs(name, short=False):
    """The job list of a workload; short mode runs in about a second."""
    def size(full, small):
        return small if short else full

    if name == "trial-sweep":
        return [
            Job("resnet-drift", {"experiment": "resnet-drift", **RESNET,
                                 "n": size(2500, 300), "trials": 20},
                check_resnet_drift),
            Job("operator-tau", {"experiment": "operator-tau", "preset": "sl2_pair",
                                 "n": size(250, 50), "trials": 30},
                check_sl2_tau_bounds),
            Job("hyperbolic-walk", {"experiment": "hyperbolic-walk", **TWO_MAPS,
                                    "n": size(1000, 200), "trials": 20},
                check_hyperbolic_walk),
            Job("top-exponent", {"experiment": "top-exponent", "preset": "pm1_walk",
                                 "n": size(500, 100), "trials": size(50, 20)},
                check_pm1_walk),
            Job("segal-sweep", {"experiment": "segal-sweep", "pairs": size(500, 50)},
                check_segal),
            Job("lipschitz-profile",
                {"experiment": "lipschitz-profile", **({"n_pairs": 20} if short else {})},
                check_lipschitz),
        ]
    if name == "long-orbit":
        n_sl2 = size(20000, 1000)
        return [
            Job("oseledets-spectrum", {"experiment": "oseledets-spectrum",
                                       "preset": "sl2_pair", "n": n_sl2},
                check_oseledets_sl2),
            Job("operator-tau", {"experiment": "operator-tau", "preset": "sl2_pair",
                                 "n": n_sl2, "trials": 1},
                check_tau_vs_qr),
            Job("hyperbolic-walk", {"experiment": "hyperbolic-walk", **TWO_MAPS,
                                    "n": size(25000, 2000), "trials": 1},
                check_hyperbolic_walk),
            Job("filtration-probe", {"experiment": "filtration-probe",
                                     "diag": [2.0, 0.5], "n": size(12500, 500)},
                check_filtration),
            Job("jacobian-cocycle", {"experiment": "jacobian-cocycle", "preset": "mobius",
                                     "mobius_a": 0.5, "n": size(1000, 100)},
                check_jacobian_mobius),
            Job("max-stretch", {"experiment": "max-stretch", "preset": "mobius",
                                "mobius_a": 0.5, "n": size(2500, 100)},
                check_max_stretch_mobius),
        ]
    if name == "metric-suite":
        return [Job("metric-axioms", {"experiment": "metric-axioms", "dim": 3,
                                      "samples": size(300, 30)},
                    check_metric_axioms)]
    raise KeyError(name)


WORKLOADS = ("trial-sweep", "long-orbit", "metric-suite")
