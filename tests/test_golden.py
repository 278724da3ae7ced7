"""Golden digests: every experiment's data table, byte for byte.

Each experiment runs at criterion 11's small config with seed 5, and the
SHA-256 of its CSV must match the pinned value.  A refactor preserves
behaviour only if every digest still matches; a deliberate change of
output re-pins the digests and says why.  Most small configs are
deterministic (one-map walks, constant matrices), so a second table pins
configs whose trials draw from their streams: random matrix products,
walks on two maps, their state ratios, a tanh chain whose profile is not
0, a drift in two dimensions, and the metric suites in dimension 3; it
also pins a disk Mobius top exponent and a random-product QR spectrum.  The
digests hold for one floating-point build (pinned with numpy 2.4.6 and
its bundled OpenBLAS; no experiment calls scipy) and one choice of CPU
kernels within it; another BLAS or LAPACK may differ in the last bits.
numpy and OpenBLAS pick their kernels for the CPU at run time, and the digests were pinned on an AVX512 host:
OpenBLAS's SkylakeX kernels and numpy's AVX512 dispatch.  The same build
on a CPU without AVX512 runs other kernels, and some digests differ there.

The operator-tau, state-ratio and hyperbolic-walk digests, golden and
stochastic, were re-pinned when the operator fold and the disk walk began
to form their products by pairwise reduction, which rounds differently
from the old step loop and is checked instead against 50-digit products
(``mp_log_gram_norms``, ``mp_walk_gaps`` and ``mp_state_ratios`` in
``tests/oracles.py``).  The tanh profile was re-pinned when layer weights
began to be normalized by their SVD norm instead of a power-iteration
estimate, and the two-dimensional drift when each layer began to draw one
bias per coordinate instead of one bias for all.  Golden top-exponent and
operator-tau and stochastic top-exponent-pm1_walk and
top-exponent-disk_mobius were re-pinned when the tail slope became a
closed-form least-squares fit summed with ``math.fsum`` instead of a LAPACK
solve, the summary began to centre the per-trial values on the first and
sum them exactly, and the disk distance became the conformal-factor form
``2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2)))``: translation's tail
slope is exactly 0, operator-tau's three equal values have a std error of
exactly 0, and only tail slopes move in the two top-exponent tables.
Golden metric-axioms and stochastic metric-axioms-dim3 were re-pinned when
the Thompson and Funk kernel began to take each pencil's log generalized
eigenvalues as 2 log of the singular values of L_P^-1 L_Q from one
stacked SVD, instead of a LAPACK ``sygvd`` call per pair, and is checked
against 40-digit eigenvalues (``mp_cone_log_eigs``): only the two cone
metrics' identity errors move, each to a fraction of its old value.  Both
were re-pinned again when the cone and stretch samplers began to draw each
block of points with whole-array generator calls (the normal factors of
all its matrices, then their scales; all amplitudes, then wave vectors,
then phases) instead of one point's parameters after another's: the
suites sample other cone and stretch points, so only those three rows
move, and the Euclidean, disk and Jacobian rows, whose block draws take
the stream in the one-point order, keep their bits.  Golden segal-sweep was
re-pinned when the Segal check stopped calling ``scipy.linalg.expm``: the
left side became exp of the top ``eigh`` eigenvalue of u+v, the right side
the top ``eigvalsh`` eigenvalue of exp(u/2) exp(v) exp(u/2) with factors
from ``expm_symmetric``, and path_gap compares that eigendecomposition's
exp(u+v) with a numpy Taylor scaling and squaring; all three are checked
against 50-digit exponentials (``mp_segal``), where each errs no more than
the scipy path (``scipy_segal_sweep``) did.  Golden filtration-probe was
re-pinned when growth rates stopped dividing by sqrt(w^T w) and summing a
log a step, and began to rescale by an exact power of two once a block and
take one log a checkpoint: e1 and e2 now read log 2 to the last bit, and
every rate errs no more than the old loop's against 50-digit products
(``mp_growth_rates``).  Golden oseledets-spectrum and stochastic
oseledets-spectrum-sl2_pair were re-pinned when the QR spectrum stopped
factoring each step with LAPACK's ``geqrf``/``orgqr`` and summing log
|r_ii| a step, and began to read the sum of its top j exponents as a
power-of-two growth rate of the j-th exterior power (with Hodge duality
past dim/2) and the full sum as count-weighted logs of double-double
determinants, carried exactly and rounded once per exponent: diag [3, 1]
now reads log 3 to the last bit (the loop was 2.8e-14 off) and its zero
exponent as 2.5e-17, the rounding of log 0.75 (the loop's 0 came from an
exact R diagonal), the sl2_pair exponents are exact negatives of each other, and
every exponent errs no more than the loop's against 50-digit Gram-Schmidt
QR (``mp_qr_spectrum``).  Both hold under OpenBLAS's Haswell kernels.
Stochastic top-exponent-disk_mobius was re-pinned again when the disk
preset stopped folding orbit points in disk coordinates, which reach the
circle's float boundary after about 35 steps, and began to read a(k) from
the walk's scaled SU(1,1) prefix products (``walk_top_exponent``, checked
against 50-digit products): per_trial moved from 1.0986122886683793,
2.7e-13 above log 3, to 1.09861228866811, one ulp above, and the tail
slope from 6.5e-14 to -1.1e-16.  Golden metric-axioms, stochastic
metric-axioms-dim3 and stochastic lipschitz-profile-tanh were re-pinned
when the functional-bound suite and the Lipschitz pairs began to draw
from the run's own trial-1 stream instead of the trial-0 stream of the
next master seed, which that seed's run also read: the axiom columns and
the layers keep their bits, only the Jacobian and stretch rows move in
their functional-bound columns, and the tanh profile moves.  Golden
lipschitz-profile, a relu chain, did not move.  Golden oseledets-spectrum
was re-pinned when growth-rate rows began to step by double-double
products of aligned blocks of 64 steps instead of one matmul a step
(checked with ``==`` against a block loop, and against 50-digit products
and QR, where each rate errs no more than the per-step loop's): diag
[3, 1]'s zero exponent moved from 2.5014510956328375e-17 to
2.6152489556569161e-17 and its drift from 3.3e-18 to 2.1e-18: the log
norm of its first row (1000 log 3) now errs 8.1e-17 instead of 1.1e-15,
and no longer happens to offset the rounding of log 0.75 in the
determinant sum (2.607e-17 an exponent).  Golden filtration-probe and stochastic
oseledets-spectrum-sl2_pair kept their bits.  The new digest holds under
OpenBLAS's Haswell kernels and numpy's AVX2 dispatch.  Golden
hyperbolic-walk and stochastic hyperbolic-walk-two_maps and
top-exponent-disk_mobius were re-pinned when the walk's products moved
from complex SU(1,1) matrices rounded at each node to the real
double-double products of their Cayley forms, with |alpha| read from the
trace and the logs taken by ``math.log`` per value: all three now hold
under OpenBLAS's Haswell kernels and numpy's AVX2 dispatch.  Golden
segal-sweep was re-pinned again when the sweep stopped drawing each pair
from its own stream and began to draw all its pairs from one stream, u
before v within each pair, so that it checks other pairs
(``loop_segal_sweep`` draws them the same way).
"""

import hashlib

import pytest

from horoflow.cli import EXIT_OK, run

from test_acceptance import _SMALL_CONFIGS

GOLDEN_SHA256 = {
    "filtration-probe":
        "f059ed65073fc2d8075080532da76e1da87c191f996bb8e92c22ef27f14258aa",
    "hyperbolic-walk":
        "9e1205d681abb33dc06cb2b2cd60790c4cab1ddb2fbcc3356445435faf89195b",
    "jacobian-cocycle":
        "1d44500b07e1202af6de70def54a84d2206644ee058ad8b44a306d2969b2eb80",
    "lipschitz-profile":
        "d8276ed9bc709909c861c105810e18b64f2af37dec0faf23ccb2033d3e9b46b7",
    "max-stretch":
        "405e58c4c44cc0b77090b1de27a9fa662575ca0518c56e63307ec858850c1eb8",
    "metric-axioms":
        "6090e4c4d8ce6b4bd5ee8d0ed69febb9bef4fb6c8c13332c412c8258fdf438d1",
    "operator-tau":
        "d00c427a5ae58491c10d74662c3119a193375a94d9f7ccddbd1f792af444f4fb",
    "oseledets-spectrum":
        "e7cc6d045cb1e8cb8a2623248efe69d1da4584607ad119bcb6da3670a7b71f37",
    "resnet-drift":
        "d2aada1a55a1b6567865f265e7bd89d8881e5ec12dec74a061105cd2bc6736a7",
    "segal-sweep":
        "91e058ab789df1d1c133c7b88849bed73b6af55198c2b42519bf137013561ec8",
    "state-ratio":
        "d7ec07b5ba0c40d72376477cea6d2d48c9a55a1e6e6a7cd31f5a76e651adb8aa",
    "top-exponent":
        "007a2709ed7487de0f85c30823123ffad2dd5cb1389a4ff6c8b66b29eb0f3093",
}


# label -> (experiment, config overrides, digest), seed 5 like the rest
STOCHASTIC_SHA256 = {
    "operator-tau-sl2_pair": (
        "operator-tau", {"preset": "sl2_pair", "n": 50, "trials": 4},
        "f721b4bc7498e6e76c76e319795cbfe9386bef382939ca913cf88e8fc70ed347"),
    "operator-tau-rotation": (
        "operator-tau", {"preset": "rotation", "n": 50, "trials": 2},
        "4b1e6e85ff96cd70a63bcc002ce772594c10da51e0557b44c17ee0a511de03a4"),
    "state-ratio-sl2_pair": (
        "state-ratio", {"preset": "sl2_pair", "N": 50, "checkpoints": [10, 30, 50]},
        "ff74ece075e6da1ef52307275c5ab6a473b675149ba3be2f94a0fe2136243443"),
    "top-exponent-pm1_walk": (
        "top-exponent", {"preset": "pm1_walk", "n": 50, "trials": 3},
        "b813e094fd8487766135a7de26a46abba9d32ac0f38a52383726b00f56379ec9"),
    "top-exponent-disk_mobius": (
        "top-exponent", {"preset": "disk_mobius", "n": 12, "trials": 2},
        "5d779d7e9430658aa642fde46a5a211df578f16f92d043ccc0b0bb9d62ddc103"),
    "oseledets-spectrum-sl2_pair": (
        "oseledets-spectrum", {"preset": "sl2_pair", "n": 2000},
        "85906177ddce1169332a6e3c9138fdc06da3fbc613876a15c2be4246cff0788b"),
    "hyperbolic-walk-two_maps": (
        "hyperbolic-walk", {"n": 200, "trials": 2, "mobius_a2": "0.3+0.2j"},
        "f28f5682c57807ea2d2a9df9b208c793457eb6e3f898086f21089895096d8c20"),
    "lipschitz-profile-tanh": (
        "lipschitz-profile", {"activation": "tanh", "depth": 5, "n_pairs": 20},
        "20b1dbaa717773787e088f041ede818d3668a6f4e887ffb18fa14a6ea19c8a5d"),
    "resnet-drift-tanh_d2": (
        "resnet-drift", {"d": 2, "activation": "tanh", "n": 50, "trials": 3},
        "047888ab3a6e65112d9e21393ae7aa9a9b8ba5d7553342c160cdb7d7f9e2282d"),
    "metric-axioms-dim3": (
        "metric-axioms", {"dim": 3, "samples": 200},
        "3233a3d087a0f0257e9fa0e7cc4ac03ba7982edfae5ac0b32b4643f105ea04a2"),
}


def _digest(name, overrides, tmp_path):
    cfg = {"experiment": name, "seed": 5, "output_dir": str(tmp_path)}
    cfg.update(overrides)
    assert run(cfg) == EXIT_OK
    return hashlib.sha256((tmp_path / f"{name}-5.csv").read_bytes()).hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(GOLDEN_SHA256) == sorted(_SMALL_CONFIGS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_digest(name, tmp_path):
    assert _digest(name, _SMALL_CONFIGS[name], tmp_path) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("label", sorted(STOCHASTIC_SHA256))
def test_stochastic_golden_digest(label, tmp_path):
    name, overrides, digest = STOCHASTIC_SHA256[label]
    assert _digest(name, overrides, tmp_path) == digest
