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
from four ``run`` configs at seed 0 that read the general FTRL bound
(dual averaging, constant OGD and entropic) and the weak proximal bound
(FTRL-Proximal), from the two ``run`` configs of the ``long-horizon``
benchmark workload at seed 0 (mirror descent with L1 at T = 1024 and
AdaGrad FTRL-Proximal on a box at T = 4096, both at n = 5),
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
from pathlib import Path

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
    # the general FTRL bound reads r_{0:t-1}(x*) and the rates of the round before
    "da-general-ftrl": (
        "run",
        "learner = dual-averaging\nstream = random-linear\nbound = general-ftrl\n"
        "T = 300\nn = 4\n",
        "3187a0782ee4e3c31f7825d8e0d2b6b5b9a7e6e05fa82d6fb951ee6854bb4c23"),
    "ogd-general-ftrl": (
        "run",
        "learner = constant-ogd\nstream = random-linear\nbound = general-ftrl\n"
        "T = 300\nn = 4\n",
        "b9bded3bb6f7831db7dd8068356e0f1d05767f00742bfae13b26a924ac655ccc"),
    "entropic-general-ftrl": (
        "run",
        "learner = entropic\nstream = random-linear-sup\nbound = general-ftrl\n"
        "T = 300\nn = 4\n",
        "9d5ace9ba4cc5564c3a20b036f718668c4371e37c5c7e2ca888d3f780022881b"),
    "prox-weak-proximal": (
        "run",
        "learner = ftrl-proximal\nstream = random-linear\nbound = weak-proximal\n"
        "T = 300\nn = 4\n",
        "023fe947fbb2f03704c90b80c5bc0b17998d5d94b6dd4b06a0e237edacb32ac6"),
    # the two long-horizon benchmark runs; 4096 x 5 entries take two _play_rows slices
    "long-md-l1": (
        "run",
        "learner = md-l1\nstream = random-linear\nbound = mirror-descent\nT = 1024\n"
        "n = 5\nlambda = 0.1\n",
        "f4b9a013a775824f832a0a7b3b1894718eafb4c5ed2bb49b2bc611c601914ed3"),
    "long-adagrad-ftrl-proximal": (
        "run",
        "learner = adagrad-ftrl-proximal\nstream = random-linear-sup\nbound = ftrl-proximal\n"
        "T = 4096\nn = 5\n",
        "9c37d0afc4e59ccae2bb7f3ee167b0c031814b71dba878cdd7c40f1c34bf22cd"),
}
# the suites that finish in under a second; ``verify all`` runs every suite
CHEAP_SUITES = ("core", "learners", "mirror", "streams", "percoord-dominance", "l1-example",
                "sparsity")
REPRO_L1 = "9889c9132cae1c674e60eb1985de0493b24185bafe2118fb0438bf3fc3d4b55a"
# re-recorded when r_{0:t}(x*) and the mirror penalty's tangents became per-row
# products, whose bits do not depend on the run's length: only the decomposition
# column of dual averaging and constant OGD moved, by at most 4.4e-16 relative
BOUND_RUNS = "b87e8c532a275d94c262023c80a0bc92edd18945365a58b00f2c6718b753b4b2"


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


def test_the_cheap_suites_print_their_expected_verify_lines():
    expected = (Path(__file__).parent / "verify_all.expected").read_text().splitlines()
    for name in CHEAP_SUITES:
        got = [f"[{name}] {line}" for line in suites.run_suite(name).lines]
        assert got == [line for line in expected if line.startswith(f"[{name}] ")], name


def test_verify_all_prefixes_and_merges_every_suite_in_order(monkeypatch):
    def tiny(name, checks):
        def suite():
            result = suites.SuiteResult(name)
            for ok, label in checks:
                result.check(ok, label)
            return result
        return suite

    monkeypatch.setattr(suites, "SUITES", {
        "first": tiny("first", [(True, "a"), (False, "b")]),
        "second": tiny("second", [(True, "c")]),
    })
    merged = suites.run_suite("all")
    assert merged.name == "all" and not merged.passed
    assert merged.lines == ["[first] PASS  a", "[first] FAIL  b", "[second] PASS  c"]
    assert merged.failures == ["[first] b"]
