"""Experiment registry and deterministic command-line runner.

Configs are single JSON documents; flags override document values.  Every
run writes one data table (CSV or JSONL, byte-identical for identical
config+seed) and one manifest recording the seed derivation.  Each run
draws only from streams keyed by its own master seed.  Exit codes: 0
success, 2 config error.
"""

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import (DegenerateInputError, MetricDomainError,
                   check_functional_bounds, check_weak_metric_axioms)
from .cocycle import (ErgodicDriver, constant_driver, estimate_top_exponent,
                      geometric_checkpoints, hyperbolic_walk_gap, mobius_matrix,
                      walk_top_exponent)
from .deepnet import (ACTIVATIONS, jacobian_cocycle_dist, lipschitz_profile,
                      make_layer, max_stretch, resnet_drift)
from .lyapunov import filtration_probe, qr_spectrum
from .operator_cone import expm_taylor, segal_check, state_ratio_check, tau_estimate
from .seeding import GENERATOR_NAME, trial_rng
from .spaces import (NotDiffeomorphismError, euclidean_space, mobius_circle_map,
                     registered_basepoints, registered_spaces,
                     rotation_circle_map, sine_circle_map)

EXIT_OK = 0
EXIT_CONFIG = 2


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


# ---------------------------------------------------------------------------
# Parameter domains: each takes a config value and returns it checked and
# typed for the runner, or raises ValueError with the diagnostic.  A JSON
# boolean is never a number.

_MISSING = object()   # default of a parameter every config must set


def _finite(v):
    """v as a finite float, or None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    # false for nan and inf, and for an int too large for a float
    return float(v) if abs(v) <= sys.float_info.max else None


def _integer(lo):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int) or v < lo:
            raise ValueError(f"must be an integer >= {lo}")
        return v
    return check


def _real(lo=-math.inf, hi=math.inf, closed=True):
    """A finite real in [lo, hi], or in (lo, hi) unless closed."""
    left, right = "[]" if closed else "()"
    message = f"must be a finite real in {left}{lo:g}, {hi:g}{right}"

    def check(v):
        x = _finite(v)
        if x is None or not (lo <= x <= hi if closed else lo < x < hi):
            raise ValueError(message)
        return x
    return check


def _disk(v):
    """A complex number inside the open unit disk; JSON has no complex type,
    so strings such as "0.3+0.2j" are accepted."""
    try:
        z = math.nan if isinstance(v, bool) else complex(v)
    except (TypeError, ValueError, OverflowError):
        z = math.nan
    if not abs(z) < 1.0:
        raise ValueError("must be a complex number inside the unit disk")
    return z


def _choice(*names):
    def check(v):
        if not isinstance(v, str) or v not in names:
            raise ValueError(f"must be one of {', '.join(names)}")
        return v
    return check


def _reals(v):
    vals = [_finite(x) for x in v] if isinstance(v, (list, tuple)) else []
    if not vals or None in vals:
        raise ValueError("must be a nonempty list of finite reals")
    return vals


def _counts(v):
    if not isinstance(v, (list, tuple)) or not v or any(
            isinstance(k, bool) or not isinstance(k, int) or k < 1 for k in v):
        raise ValueError("must be a nonempty list of integers >= 1")
    return list(v)


def _text(v):
    if not isinstance(v, str) or not v:
        raise ValueError("must be a nonempty string")
    return v


_COUNT = _integer(1)
_TRIAL = (0, _integer(0))
_ACTIVATION = ("relu", _choice(*ACTIVATIONS))
_OPEN_UNIT = _real(-1.0, 1.0, closed=False)


# ---------------------------------------------------------------------------
# Runners: each takes the checked parameters and returns (columns, rows)

def _run_metric_axioms(cfg):
    samples = cfg["samples"]
    spaces = registered_spaces(cfg["dim"])
    basepoints = registered_basepoints(cfg["dim"])
    cols = ["metric", "samples", "max_identity_error", "max_triangle_violation",
            "max_lower_violation", "max_upper_violation", "max_continuity_violation"]
    rows = []
    for name in sorted(spaces):
        sp = spaces[name]
        ax = check_weak_metric_axioms(sp, samples, trial_rng(cfg["seed"], 0))
        fb = check_functional_bounds(sp, basepoints[name], samples,
                                     trial_rng(cfg["seed"], 1))
        rows.append((name, samples, ax.max_identity_error, ax.max_triangle_violation,
                     fb.max_lower_violation, fb.max_upper_violation,
                     fb.max_continuity_violation))
    return cols, rows


def _hyperbolic_driver(cfg) -> ErgodicDriver:
    m1 = mobius_matrix(cfg["mobius_a"])
    if cfg["mobius_a2"] is None:
        return constant_driver(m1, seed=cfg["seed"])
    m2 = mobius_matrix(cfg["mobius_a2"])
    w = cfg["weight"]
    return ErgodicDriver(seed=cfg["seed"],
                         maps=(m1, m2), weights=(w, 1.0 - w))


def _run_hyperbolic_walk(cfg):
    ks = geometric_checkpoints(cfg["n"], count=cfg["probe_budget"])
    ks, gaps = hyperbolic_walk_gap(_hyperbolic_driver(cfg), cfg["n"], cfg["trials"], ks)
    rows = [(t, k, gap) for t, row in enumerate(gaps.tolist())
            for k, gap in zip(ks, row)]
    return ["trial", "k", "gap"], rows


def _run_top_exponent(cfg):
    preset, n, trials = cfg["preset"], cfg["n"], cfg["trials"]
    if preset == "disk_mobius":
        # from x0 = 0, a(k) read from the walk's scaled products
        driver = constant_driver(mobius_matrix(cfg["mobius_a"]), seed=cfg["seed"])
        est = walk_top_exponent(driver, n, trials)
    else:
        if preset == "translation":
            driver = constant_driver(lambda x: x + 1.0, seed=cfg["seed"])
        else:  # preset == "pm1_walk"
            driver = ErgodicDriver(seed=cfg["seed"],
                                   maps=(lambda x: x + 1.0, lambda x: x - 1.0),
                                   weights=(0.5, 0.5))
        est = estimate_top_exponent(driver, euclidean_space(1), np.zeros(1), n, trials)
    rows = [(t, v, est.lambda_hat, est.std_error, est.tail_slope)
            for t, v in enumerate(est.per_trial)]
    return ["trial", "per_trial", "lambda_hat", "std_error", "tail_slope"], rows


_SL2_PAIR = (np.array([[2.0, 1.0], [1.0, 1.0]]),
             np.array([[1.0, 1.0], [1.0, 2.0]]))


def _matrix_params(diag) -> dict:
    """The parameters _matrix_driver reads, with diag's default."""
    return {"preset": ("diag", _choice("diag", "rotation", "sl2_pair")),
            "diag": (diag, _reals),
            "rotation_angle": (math.pi / 4, _real())}


def _matrix_driver(cfg) -> ErgodicDriver:
    preset = cfg["preset"]
    if preset == "diag":
        return constant_driver(np.diag(cfg["diag"]), seed=cfg["seed"])
    if preset == "rotation":
        th = cfg["rotation_angle"]
        m = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        return constant_driver(m, seed=cfg["seed"])
    # preset == "sl2_pair"
    return ErgodicDriver(seed=cfg["seed"],
                         maps=_SL2_PAIR, weights=(0.5, 0.5))


def _run_oseledets_spectrum(cfg):
    est = qr_spectrum(_matrix_driver(cfg), cfg["n"], trials=[cfg["trial"]])
    rows = [(i, e, r) for i, (e, r) in enumerate(zip(est.exponents[0], est.resid[0]))]
    return ["index", "exponent", "resid"], rows


def _run_filtration_probe(cfg):
    A = np.diag(cfg["diag"])
    dim = A.shape[0]
    probes = [np.eye(dim)[i] for i in range(dim)] + [np.ones(dim)]
    rep = filtration_probe(A, probes, cfg["n"], cfg["cluster_tol"])
    cluster_of = {}
    for c, members in enumerate(rep.clusters):
        for i in members:
            cluster_of[i] = c
    rows = [(i, rep.rates[i], cluster_of[i]) for i in range(len(probes))]
    return ["probe_index", "rate", "cluster"], rows


def _run_operator_tau(cfg):
    est = tau_estimate(_matrix_driver(cfg), cfg["n"], cfg["trials"])
    rows = [(t, v, est.lambda_hat, est.std_error)
            for t, v in enumerate(est.per_trial)]
    return ["trial", "per_trial", "tau_hat", "std_error"], rows


def _run_state_ratio(cfg):
    rows = state_ratio_check(_matrix_driver(cfg), cfg["N"],
                             cfg["checkpoints"], trial=cfg["trial"])
    return ["l", "ratio", "tau_hat"], rows


# pairs per stacked segal-sweep call; bounds the (pairs, dim, dim) temporaries
_SEGAL_BLOCK = 1024


def _run_segal_sweep(cfg):
    dim, scale = cfg["dim"], cfg["scale"]
    if math.isinf(2.0 * scale):
        # the draw range itself overflows, and every exponential would
        raise DegenerateInputError(
            "matrix exponential overflows: the scale of u and v is too large")
    # one stream for the sweep, u drawn before v within each pair: blocks
    # drawn in turn read it as one whole draw would, so a shorter sweep's
    # pairs are a prefix of a longer one's
    rng = trial_rng(cfg["seed"], 0)
    rows = []
    for start in range(0, cfg["pairs"], _SEGAL_BLOCK):
        pairs = range(start, min(start + _SEGAL_BLOCK, cfg["pairs"]))
        uv = rng.uniform(-scale, scale, size=(len(pairs), 2, dim, dim))
        u, v = (0.5 * (uv + uv.swapaxes(-1, -2))).swapaxes(0, 1)
        # path_gap: exp(u+v) from the eigendecomposition behind lhs against
        # the Taylor path, which shares no step with it
        lhs, rhs, e_sum = segal_check(u, v)
        path_gap = np.linalg.svd(e_sum - expm_taylor(u + v),
                                 compute_uv=False).max(axis=-1)
        rows += [(i, a, b, b - a, g) for i, a, b, g in
                 zip(pairs, lhs.tolist(), rhs.tolist(), path_gap.tolist())]
    return ["pair", "lhs", "rhs", "slack", "path_gap"], rows


def _run_resnet_drift(cfg):
    d, n, trials = cfg["d"], cfg["n"], cfg["trials"]
    support = np.asarray(cfg["b_support"])
    # one shared identity weight; each layer draws one bias value per
    # coordinate, so at d = 1 the stream is one value per layer
    picks = np.array([trial_rng(cfg["seed"], t).integers(support.size, size=(n, d))
                      for t in range(trials)])
    rep = resnet_drift(np.eye(d), cfg["activation"], support[picks], np.zeros(d))
    rows = []
    for t in range(trials):
        for c in range(d):
            rows.append((t, c, rep.v_hat[t, c], rep.per_coordinate_se[c]))
    return ["trial", "coord", "v_hat", "se"], rows


def _run_lipschitz_profile(cfg):
    d = cfg["d"]
    rng = trial_rng(cfg["seed"], 0)
    layers = [make_layer(rng.normal(size=(d, d)), rng.normal(size=d),
                         cfg["activation"]) for _ in range(cfg["depth"])]
    # every pair in one draw, x before y within each pair
    xy = trial_rng(cfg["seed"], 1).normal(size=(cfg["n_pairs"], 2, d))
    profile = lipschitz_profile(layers, xy[:, 0], xy[:, 1])
    return ["depth", "profile"], [(cfg["depth"], profile)]


def _stretch_driver(cfg) -> ErgodicDriver:
    preset = cfg["preset"]
    if preset == "identity":
        return constant_driver(lambda z: z, seed=cfg["seed"])
    if preset == "rotation":
        phase = complex(math.cos(1.0), math.sin(1.0))
        return constant_driver(lambda z, _p=phase: _p * z, seed=cfg["seed"])
    # preset == "mobius"
    a = cfg["mobius_a"]
    return constant_driver(lambda z, _a=a: (z + _a) / (1.0 + _a * z),
                           seed=cfg["seed"])


def _run_max_stretch(cfg):
    rep = max_stretch(_stretch_driver(cfg), cfg["n"], cfg["grid"])
    rows = []
    for depth, (x, y) in rep.argmax_trace:
        rows.append((depth, x.real, x.imag, y.real, y.imag,
                     rep.lambda_hat, rep.z_hat.real, rep.z_hat.imag))
    return (["depth", "x_re", "x_im", "y_re", "y_im",
             "lambda_hat", "z_re", "z_im"], rows)


def _circle_driver(cfg) -> ErgodicDriver:
    preset = cfg["preset"]
    if preset == "rotation":
        return constant_driver(rotation_circle_map(1.0), seed=cfg["seed"])
    if preset == "sine":
        return constant_driver(sine_circle_map(cfg["amplitude"]),
                               seed=cfg["seed"])
    # preset == "mobius"
    return constant_driver(mobius_circle_map(cfg["mobius_a"]), seed=cfg["seed"])


def _run_jacobian_cocycle(cfg):
    rows = jacobian_cocycle_dist(_circle_driver(cfg), cfg["n"], cfg["grid"])
    return ["k", "a", "ratio"], rows


# ---------------------------------------------------------------------------
# Registry

class Experiment:
    def __init__(self, name, description, runner, params):
        self.name = name
        self.description = description
        self.runner = runner
        self.params = params    # every key the runner reads: (default, domain)


# every experiment takes these; a config must set the seed
COMMON = {"seed": (_MISSING, _integer(0)),
          "output_dir": (".", _text),
          "output_format": ("csv", _choice("csv", "jsonl"))}

EXPERIMENTS = {e.name: e for e in [
    Experiment("hyperbolic-walk",
               "metric-functional convergence gap for disk Mobius walks",
               _run_hyperbolic_walk,
               {"n": (1000, _integer(10)), "trials": (1, _COUNT),
                "probe_budget": (16, _COUNT), "mobius_a": (0.5, _disk),
                "mobius_a2": (None, _disk),
                "weight": (0.5, _real(0.0, 1.0))}),
    Experiment("top-exponent",
               "top exponent a(n)/n of a nonexpansive cocycle",
               _run_top_exponent,
               {"preset": ("translation",
                           _choice("translation", "pm1_walk", "disk_mobius")),
                "n": (1000, _integer(10)), "trials": (10, _COUNT),
                "mobius_a": (0.5, _disk)}),
    Experiment("oseledets-spectrum",
               "full Lyapunov spectrum by exterior-power growth rates",
               _run_oseledets_spectrum,
               {**_matrix_params([3.0, 1.0]), "n": (100000, _integer(10)),
                "trial": _TRIAL}),
    Experiment("filtration-probe",
               "growth-rate clustering of probe vectors under a constant matrix",
               _run_filtration_probe,
               {"diag": ([2.0, 0.5], _reals), "n": (1000, _integer(100)),
                "cluster_tol": (None, _real(0.0))}),
    Experiment("operator-tau",
               "exponent of ||log(v^T v)|| for matrix products",
               _run_operator_tau,
               {**_matrix_params([2.0, 0.5]), "n": (100, _integer(10)),
                "trials": (10, _COUNT)}),
    Experiment("state-ratio",
               "vector-state ratios against the operator exponent",
               _run_state_ratio,
               {**_matrix_params([2.0, 0.5]), "N": (200, _COUNT),
                "checkpoints": ([10, 100, 200], _counts), "trial": _TRIAL}),
    Experiment("segal-sweep",
               "exp(u+v) vs exp(u/2)exp(v)exp(u/2) norm inequality sweep",
               _run_segal_sweep,
               {"pairs": (1000, _COUNT), "dim": (3, _COUNT), "scale": (2.0, _real())}),
    Experiment("resnet-drift",
               "normalized deep-chain drift across random layers",
               _run_resnet_drift,
               {"d": (1, _COUNT), "n": (10000, _COUNT), "trials": (100, _COUNT),
                "activation": _ACTIVATION, "b_support": ([0.5, 1.5], _reals)}),
    Experiment("lipschitz-profile",
               "normalized Lipschitz profile of a certified chain",
               _run_lipschitz_profile,
               {"depth": (100, _COUNT), "d": (4, _COUNT), "activation": _ACTIVATION,
                "n_pairs": (200, _COUNT)}),
    Experiment("max-stretch",
               "maximal stretch exponent for circle diffeomorphism cocycles",
               _run_max_stretch,
               {"preset": ("mobius", _choice("identity", "rotation", "mobius")),
                "mobius_a": (0.5, _OPEN_UNIT), "n": (50, _COUNT),
                "grid": (1024, _COUNT)}),
    Experiment("jacobian-cocycle",
               "sup-log-Jacobian distance cocycle for circle maps",
               _run_jacobian_cocycle,
               {"preset": ("mobius", _choice("rotation", "sine", "mobius")),
                "mobius_a": (0.5, _OPEN_UNIT), "amplitude": (0.5, _OPEN_UNIT),
                "n": (200, _COUNT), "grid": (512, _integer(16))}),
    Experiment("metric-axioms",
               "weak-metric axiom and functional-bound property suite",
               _run_metric_axioms,
               {"samples": (2000, _COUNT), "dim": (3, _COUNT)}),
]}


def _check(config):
    """(diagnostics, parameters) of a config document.

    The parameters are every declared key of the experiment, checked and
    typed; run starts only when the diagnostics are empty.
    """
    if not isinstance(config, dict):
        return ["config: must be a JSON object"], None
    name = config.get("experiment")
    if not name:
        return ["experiment: missing"], None
    if not isinstance(name, str) or name not in EXPERIMENTS:
        return [f"experiment: unknown name {name!r}"], None
    declared = {**COMMON, **EXPERIMENTS[name].params}
    diags = [f"{key}: unknown parameter" for key in config
             if key != "experiment" and key not in declared]
    params = {}
    for key, (default, domain) in declared.items():
        value = config.get(key, default)
        if value is _MISSING:
            diags.append(f"{key}: missing")
        elif value is None and default is None:   # an optional parameter, unset
            params[key] = None
        else:
            try:
                params[key] = domain(value)
            except ValueError as e:
                diags.append(f"{key}: {e}")
    return diags, params


def validate(config: dict) -> list:
    """Diagnostics for a config document; empty list iff run would start."""
    return _check(config)[0]


def list_experiments():
    """Stable (name, parameters with their defaults, description) listing."""
    rows = []
    for name in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[name]
        params = ", ".join(f"{key}={json.dumps(default)}"
                           for key, (default, _) in sorted(exp.params.items()))
        rows.append((name, params, exp.description))
    return rows


def run(config: dict) -> int:
    """Execute one experiment; writes data table + manifest, returns exit code."""
    diags, params = _check(config)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG
    exp = EXPERIMENTS[config["experiment"]]
    out_dir, out_format = params["output_dir"], params["output_format"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"config error: output_dir: {e}", file=sys.stderr)
        return EXIT_CONFIG
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        columns, rows = exp.runner(params)
    except (DegenerateInputError, MetricDomainError, NotDiffeomorphismError,
            FloatingPointError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    stem = os.path.join(out_dir, f"{exp.name}-{params['seed']}")
    data_path = f"{stem}.{out_format}"
    manifest = {
        "config": {"experiment": exp.name, **params},
        "generator": GENERATOR_NAME,
        "artifact_version": __version__,
        "started": started,
        "finished": finished,
        "data_file": os.path.basename(data_path),
    }
    try:
        with open(data_path, "w", newline="") as fh:
            if out_format == "csv":
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(fmt(x) for x in row) + "\n")
            else:
                for row in rows:
                    fh.write(json.dumps({c: (fmt(x) if isinstance(x, (float, np.floating))
                                             else x)
                                         for c, x in zip(columns, row)},
                                        sort_keys=True) + "\n")
        try:
            with open(f"{stem}.manifest.json", "w", newline="") as fh:
                json.dump(manifest, fh, indent=2, default=str)
                fh.write("\n")
        except OSError:
            # no table is left behind without its manifest
            os.remove(data_path)
            raise
    except OSError as e:
        print(f"config error: output_dir: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {data_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horoflow",
        description="deterministic experiments on weak metrics and ergodic cocycles")
    parser.add_argument("--experiment", help="experiment name (see --list)")
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=["csv", "jsonl"], help="output format")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument("--validate-only", action="store_true",
                        help="validate the config and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, params, desc in list_experiments():
            print(f"{name:22s} [{params}]  {desc}")
        return EXIT_OK

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"config error: cannot parse {args.config}: {e}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(config, dict):
            print(f"config error: {args.config}: must be a JSON object", file=sys.stderr)
            return EXIT_CONFIG
    if args.experiment:
        config["experiment"] = args.experiment
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out:
        config["output_dir"] = args.out
    if args.format:
        config["output_format"] = args.format

    if args.validate_only:
        diags = validate(config)
        for d in diags:
            print(d)
        return EXIT_OK if not diags else EXIT_CONFIG

    code = run(config)
    name = config.get("experiment")
    if code == EXIT_CONFIG and not (isinstance(name, str) and name in EXPERIMENTS):
        print("registered experiments:", file=sys.stderr)
        for name, params, desc in list_experiments():
            print(f"  {name}: {desc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
