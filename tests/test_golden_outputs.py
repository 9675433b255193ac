"""Byte-identity of the command-line output, pinned by sha256.

Refactors of the driver, the learners and the loss accounting must leave
the CSV bytes of ``ocokit run``, ``ocokit compare`` and ``ocokit repro-l1``
unchanged, and the arrays of the verify bound runs too.  The digests below
were recorded from eight ``run`` configs at seed 0 (every stream family and
every learner kind: unconstrained dual averaging, FTRL-Proximal on a ball,
AdaGrad on a box and on logistic losses, composite L1 on the 1-D
adversary, mirror descent with L1, entropic, strongly convex), from three
``compare`` configs at seed 0
(seven learners on logistic, random-linear and strongly convex streams),
from ``repro-l1``, and from the five record arrays of every run of
``suites.run_bound_experiments()`` (200 streams per pairing, T = 64), the
runs that ``verify bounds`` and ``verify stability-diagnostic`` check.  A
change that moves one printed digit fails here; if that change is intended,
the new digests go in with it, and the reason with them.

The values are bitwise-sensitive to numpy's summation and dot-product
kernels, which the numpy 2 builds these digests come from share; older
numpy is not checked, so the test skips there.
"""

import hashlib

import numpy as np
import pytest

from ocokit import cli, suites

pytestmark = pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="digests recorded with numpy 2; numpy 1.x float kernels may round differently")

RUNS = {  # name: (subcommand, config, sha256 of the CSV at seed 0)
    "da-sqrt": (
        "run",
        "learner = dual-averaging\nstream = random-linear\nbound = da-closed-form\n"
        "T = 300\nn = 4\n",
        "628e52ea7f6fa082061e47b4a9adde3838ae68c93d8fc0abf4cfe1050657aac8"),
    "prox-fixed": (
        "run",
        "learner = ftrl-proximal\nstream = random-linear\nbound = ftrl-proximal\n"
        "T = 300\nn = 4\neta = 0.1\n",
        "8c8508a809e50459f02ae0b401a08b4095f88c19317cb824de548cbe647674fa"),
    "adagrad-sup": (
        "run",
        "learner = adagrad-ftrl-proximal\nstream = random-linear-sup\n"
        "bound = adagrad-per-coord\nT = 300\nn = 4\n",
        "57328d8e3cd194e51fd5129b49600de8fe5e954c4d7b79fc1db62e02ea8fa147"),
    "adagrad-logistic": (
        "run",
        "learner = adagrad-ftrl-proximal\nstream = logistic\nbound = ftrl-proximal\n"
        "T = 200\nn = 5\n",
        "5f245d197ff9f3691935121b401d43fb81bed313d92e697df4d4a2e802254b12"),
    "ftrl-l1-adversary": (
        "run",
        "learner = ftrl-l1\nstream = l1-adversary\nbound = composite\nT = 64\nn = 1\n"
        "G = 11\nlambda = 0.5\n",
        "243746da0e44964fb16be8b080535083a2420943020b4831d9a13fbe1e332647"),
    "md-l1": (
        "run",
        "learner = md-l1\nstream = random-linear\nbound = mirror-descent\nT = 500\n"
        "n = 3\nlambda = 0.1\n",
        "509206efa5f57afe8e96021f53fda00636c1e0f036957718a1a8ccb6d61cfd13"),
    "entropic": (
        "run",
        "learner = entropic\nstream = random-linear-sup\nbound = entropic\nT = 300\n"
        "n = 4\n",
        "078ffd777caf4d3575e471ca073cc7bfd23050682f8be7f2f6f40025c2a0d0a7"),
    "ogd-strongly-convex": (
        "run",
        "learner = ogd-strongly-convex\nstream = strongly-convex\n"
        "bound = strongly-convex-log\nT = 300\nn = 3\n",
        "371147c798f02b9caf8e8279ee638d5eaa19f14f493717fe8838372b087522cc"),
    "compare-logistic": (
        "compare",
        "learners = ftrl-l1, md-l1, dual-averaging\nstream = logistic\nT = 300\nn = 12\n"
        "lambda = 0.05\neta = 0.1\n",
        "b5b51b1e5b9bb91ea935825ad05f78f1ed879e8947827cd94ac4cd2576f4617e"),
    "compare-random-linear": (
        "compare",
        "learners = adagrad-ftrl-proximal, ftrl-proximal, constant-ogd\n"
        "stream = random-linear\nT = 300\nn = 4\n",
        "8cc4fee5aac7f887099ec789c3c6d9759892da6bb8d72c39f49e66a653fcdea4"),
    # x* (the mean center) leaves the simplex, so the entropic accounting is +inf
    "compare-entropic-strongly-convex": (
        "compare",
        "learners = dual-averaging, entropic\nstream = strongly-convex\nT = 40\nn = 3\n",
        "ea18d54a4c7cb333d5d89729b6be27f3ee7631ba5aefd154336f96561ee49bdc"),
}
REPRO_L1 = "9889c9132cae1c674e60eb1985de0493b24185bafe2118fb0438bf3fc3d4b55a"
BOUND_RUNS = "102ef75b69fcf64f009aa1dc2b9ef2daa55beb0d18b579680ef26a9807ac7a42"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_csv_bytes_are_pinned(name, tmp_path):
    command, text, want = RUNS[name]
    config, out = tmp_path / "run.cfg", tmp_path / "rows.csv"
    config.write_text(text)
    assert cli.main([command, "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    assert _digest(out) == want


def test_repro_l1_bytes_are_pinned(tmp_path):
    out = tmp_path / "repro.csv"
    assert cli.main(["repro-l1", "--out", str(out)]) == 0
    assert _digest(out) == REPRO_L1


def test_bound_run_arrays_are_pinned():
    digest = hashlib.sha256()
    for runs in suites.run_bound_experiments().values():
        for run in runs:
            rec = run.record
            for column in (rec.loss, rec.comp_loss, rec.cum_regret, rec.bound,
                           rec.strong_ftrl_rhs):
                digest.update(np.ascontiguousarray(column, dtype=float).tobytes())
    assert digest.hexdigest() == BOUND_RUNS
