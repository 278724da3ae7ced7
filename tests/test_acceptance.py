"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion pins its numeric tolerance and a wall-clock budget; the
printed line survives pytest capture so the suite doubles as a checklist.
"""

import math
import time

import numpy as np

from horoflow.cli import EXIT_OK, run as cli_run
from horoflow.cocycle import (ErgodicDriver, constant_driver, geometric_checkpoints,
                              hyperbolic_walk_gap, mobius_matrix)
from horoflow.core import check_functional_bounds, check_weak_metric_axioms
from horoflow.deepnet import max_stretch, resnet_drift, spectral_normalize
from horoflow.lyapunov import _growth_rates, qr_spectrum
from horoflow.operator_cone import segal_check, state_ratio_check, tau_estimate
from horoflow.operator_cone import expm_symmetric, expm_taylor
from horoflow.seeding import trial_rng
from horoflow.spaces import registered_basepoints, registered_spaces

from oracles import mean_v_hat, random_spd, rayleigh_sup, thompson_dist


def _report(capsys, num: int, name: str, ok: bool, detail: str):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_metric_axioms(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    worst_id = worst_tri = 0.0
    for name, sp in registered_spaces(3).items():
        rep = check_weak_metric_axioms(sp, 10_000, trial_rng(0, 0))
        worst_id = max(worst_id, rep.max_identity_error)
        worst_tri = max(worst_tri, rep.max_triangle_violation)
    el = time.perf_counter() - t0
    ok = worst_id <= 1e-12 and worst_tri <= 1e-9 and el < budget
    _report(capsys, 1, "metric axioms",
            ok, f"id={worst_id:.2e} tri={worst_tri:.2e} time={el:.1f}s/<{budget:.0f}s")


def test_criterion_02_functional_bounds(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    spaces = registered_spaces(3)
    bps = registered_basepoints(3)
    worst = 0.0
    for name, sp in spaces.items():
        rep = check_functional_bounds(sp, bps[name], 10_000, trial_rng(1, 0))
        worst = max(worst, rep.max_lower_violation, rep.max_upper_violation,
                    rep.max_continuity_violation)
    el = time.perf_counter() - t0
    ok = worst <= 1e-9 and el < budget
    _report(capsys, 2, "functional bounds",
            ok, f"violation={worst:.2e} time={el:.1f}s/<{budget:.0f}s")


def test_criterion_03_thompson_dual_formula(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    rng = trial_rng(42, 0)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        p = random_spd(rng, d)
        q = random_spd(rng, d)
        worst = max(worst, abs(thompson_dist(p, q) - rayleigh_sup(p, q, rng)))
    el = time.perf_counter() - t0
    ok = worst <= 1e-8 and el < budget
    _report(capsys, 3, "Thompson dual formula",
            ok, f"gap={worst:.2e} time={el:.1f}s/<{budget:.0f}s")


def test_criterion_04_oseledets_constant_matrix(capsys):
    budget = 5.0
    t0 = time.perf_counter()
    rng = trial_rng(0, 0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q @ np.diag([3.0, 1.0, 0.5]) @ q.T
    est = qr_spectrum(constant_driver(m), 100_000)
    target = np.array([math.log(3.0), 0.0, -math.log(2.0)])
    err = float(np.max(np.abs(est.exponents - target)))
    el = time.perf_counter() - t0
    ok = err <= 5e-3 and el < budget
    _report(capsys, 4, "Oseledets constant matrix",
            ok, f"err={err:.2e} time={el:.1f}s/<{budget:.0f}s")


def test_criterion_05_two_estimator_agreement(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    pair = (np.array([[2.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0, 1.0], [1.0, 2.0]]))
    drv = ErgodicDriver(seed=3, maps=pair, weights=(0.5, 0.5))
    n, trials = 10_000, 100
    qr_top = qr_spectrum(drv, n, range(trials)).exponents[:, 0]
    v0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    maps, idx = drv.draw(range(trials), n)
    mc = _growth_rates(maps, idx, np.tile(v0, (trials, 1)), [n])[:, 0]
    diff = abs(float(qr_top.mean()) - float(mc.mean()))
    se = math.sqrt(qr_top.std(ddof=1) ** 2 / trials + mc.std(ddof=1) ** 2 / trials)
    el = time.perf_counter() - t0
    ok = diff <= 3.0 * se and el < budget
    _report(capsys, 5, "two-estimator agreement",
            ok, f"diff={diff:.2e} 3se={3*se:.2e} time={el:.1f}s/<{budget:.0f}s")


def test_criterion_06_operator_tau(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    drv = constant_driver(np.diag([2.0, 0.5]))
    target = 2.0 * math.log(2.0)
    worst_tau = max(abs(tau_estimate(drv, n, 1).lambda_hat - target)
                    for n in (10, 20, 50, 100, 200))
    rows = state_ratio_check(drv, 200, [200])
    worst_ratio = abs(rows[0][1] - rows[0][2])
    el = time.perf_counter() - t0
    ok = worst_tau <= 1e-9 and worst_ratio <= 1e-9 and el < budget
    _report(capsys, 6, "operator tau",
            ok, f"tau_err={worst_tau:.2e} ratio_err={worst_ratio:.2e} "
                f"time={el:.2f}s/<{budget:.0f}s")


def test_criterion_07_segal_sweep(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    worst_slack = -math.inf
    sums, sizes = [], []
    for i in range(10_000):
        rng = trial_rng(11, i)
        u = rng.uniform(-2.0, 2.0, size=(3, 3))
        v = rng.uniform(-2.0, 2.0, size=(3, 3))
        u = 0.5 * (u + u.T)
        v = 0.5 * (v + v.T)
        lhs, rhs, _ = segal_check(u, v)
        worst_slack = max(worst_slack, lhs - rhs)
        sums.append(u + v)
        sizes.append(max(1.0, lhs))
    # path agreement is measured relative to the exponential's size:
    # ||exp|| reaches ~e^8 here, where absolute 1e-9 is below the
    # double-precision floor for any two independent algorithms
    sums = np.array(sums)
    gaps = np.linalg.norm(expm_taylor(sums) - expm_symmetric(sums), 2, axis=(-2, -1))
    worst_path = float(np.max(gaps / np.array(sizes)))
    el = time.perf_counter() - t0
    ok = worst_slack <= 1e-10 and worst_path <= 1e-9 and el < budget
    _report(capsys, 7, "Segal sweep",
            ok, f"slack={worst_slack:.2e} path_gap={worst_path:.2e} "
                f"time={el:.1f}s/<{budget:.0f}s")


def _relu_bias_drift(seed: int, n: int, trials: int):
    # trial t draws each layer's bias from {0.5, 1.5} on its own stream
    w = spectral_normalize(np.eye(1))
    support = np.array([0.5, 1.5])
    biases = np.array([support[trial_rng(seed, t).integers(2, size=n)]
                       for t in range(trials)])[:, :, None]
    return resnet_drift(w, "relu", biases, np.zeros(1))


def test_criterion_08_resnet_drift(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    rep = _relu_bias_drift(0, 10_000, 100)
    mean_err = abs(mean_v_hat(rep)[0] - 1.0)
    se = float(rep.per_coordinate_se[0])
    gap_ok = rep.cross_input_gap <= 1.0 / 10_000
    # tanh chains: ||v_hat|| <= sqrt(d)/n without any tolerance
    rng = trial_rng(1, 0)
    d, n, trials = 3, 100, 10
    w = spectral_normalize(rng.normal(size=(d, d)))
    biases = np.array([trial_rng(1, t).normal(size=(n, d)) for t in range(trials)])
    tanh_rep = resnet_drift(w, "tanh", biases, rng.normal(size=d))
    tanh_ok = bool(np.all(np.linalg.norm(tanh_rep.v_hat, axis=1) <= math.sqrt(d) / n))
    el = time.perf_counter() - t0
    ok = mean_err <= 3.0 * se and gap_ok and tanh_ok and el < budget
    _report(capsys, 8, "ResNet drift",
            ok, f"|mean-1|={mean_err:.2e} 3se={3*se:.2e} gap_ok={gap_ok} "
                f"tanh_ok={tanh_ok} time={el:.1f}s/<{budget:.0f}s")


def test_criterion_09_functional_convergence_gap(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    const = constant_driver(mobius_matrix(0.5))
    _, const_gaps = hyperbolic_walk_gap(const, 2000, 1, geometric_checkpoints(2000))
    const_gap = max(const_gaps[0])
    drv = ErgodicDriver(seed=7,
                        maps=(mobius_matrix(0.5), mobius_matrix(0.3 + 0.2j)),
                        weights=(0.5, 0.5))
    # gap(2000) against the anchor at u(4000)0, averaged over 20 trials
    _, gaps = hyperbolic_walk_gap(drv, 4000, 20, [2000])
    mean_gap = float(np.mean(gaps[:, 0]))
    el = time.perf_counter() - t0
    ok = const_gap <= 1e-9 and mean_gap < 0.05 and el < budget
    _report(capsys, 9, "functional convergence gap",
            ok, f"const={const_gap:.2e} iid_mean={mean_gap:.2e} "
                f"time={el:.1f}s/<{budget:.0f}s")


def test_criterion_10_max_stretch(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    phase = complex(math.cos(1.0), math.sin(1.0))
    rot = constant_driver(lambda z, _p=phase: _p * z)
    rot_rate = abs(max_stretch(rot, 50, 1024).lambda_hat)
    a = 0.5
    mob = constant_driver(lambda z, _a=a: (z + _a) / (1.0 + _a * z))
    rep = max_stretch(mob, 50, 1024)
    rel_err = abs(rep.lambda_hat - math.log(3.0)) / math.log(3.0)
    z_err = abs(rep.z_hat - (-1.0))
    el = time.perf_counter() - t0
    ok = rot_rate <= 1e-6 and rel_err <= 0.05 and z_err <= 1e-2 and el < budget
    _report(capsys, 10, "max stretch",
            ok, f"rot={rot_rate:.2e} rel_err={rel_err:.2e} z_err={z_err:.2e} "
                f"time={el:.1f}s/<{budget:.0f}s")


_SMALL_CONFIGS = {
    "hyperbolic-walk": {"n": 200, "trials": 2},
    "top-exponent": {"preset": "translation", "n": 50, "trials": 3},
    "oseledets-spectrum": {"diag": [3.0, 1.0], "n": 1000},
    "filtration-probe": {"n": 200},
    "operator-tau": {"n": 50, "trials": 3},
    "state-ratio": {"N": 50, "checkpoints": [10, 50]},
    "segal-sweep": {"pairs": 20},
    "resnet-drift": {"n": 200, "trials": 3},
    "lipschitz-profile": {"depth": 20, "n_pairs": 20},
    "max-stretch": {"n": 10, "grid": 128},
    "jacobian-cocycle": {"n": 20, "grid": 64},
    "metric-axioms": {"samples": 50, "dim": 2},
}


def test_criterion_11_determinism(capsys, tmp_path):
    mismatches = []
    for name, overrides in _SMALL_CONFIGS.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            cfg = {"experiment": name, "seed": 5, "output_dir": str(out)}
            cfg.update(overrides)
            assert cli_run(cfg) == EXIT_OK, f"{name} run failed"
            blobs.append((out / f"{name}-5.csv").read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    ok = not mismatches
    _report(capsys, 11, "determinism",
            ok, "all 12 experiments byte-identical across reruns"
            if ok else f"mismatch in {mismatches}")
