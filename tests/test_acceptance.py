"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

from ocokit import suites
from ocokit.driver import repro_l1_example

BOUND_STREAMS = 200


def report(number, ok, label):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


def test_criterion_1_equivalence_of_mirror_descent_and_its_ftrl_form():
    start = time.monotonic()
    result = suites.suite_equivalence(n_streams=100, max_T=200, seed0=0)
    elapsed = time.monotonic() - start
    report(1, result.passed and elapsed < 10.0,
           f"100 random streams, iterate gap <= 1e-8 ({result.lines[0].strip()}; "
           f"{elapsed:.2f}s < 10s)")


def test_criterion_2_one_dimensional_l1_reproduction():
    start = time.monotonic()
    out = repro_l1_example()
    md = [x for _, x, _ in out.rows]
    ftrl = [x for _, _, x in out.rows]
    ok = out.ok
    # oscillation, exact to 1e-12, alternating from round 2
    for t in range(1, 16):
        ok = ok and abs(abs(md[t]) - 2.625) <= 1e-12
        if t >= 2:
            ok = ok and md[t] * md[t - 1] < 0
    ok = ok and ftrl[1] == 2.625
    ok = ok and all(ftrl[t] == 0.0 for t in range(12, 16))
    ok = ok and ftrl[11] != 0.0  # zero region starts exactly at round 13
    traj = suites.FTRL_L1_TRAJECTORY
    ok = ok and max(abs(a - b) for a, b in zip(ftrl, traj)) <= 1e-12
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 1.0,
           f"mirror descent oscillates on +/-2.625, the accumulated penalty "
           f"zeros out from round 13 ({elapsed:.3f}s < 1s)")


def test_criterion_3_bound_suites_hold_at_every_prefix():
    start = time.monotonic()
    result = suites.suite_bounds()
    elapsed = time.monotonic() - start
    for line in result.lines:
        print("   ", line)
    report(3, result.passed and elapsed < 60.0,
           f"six learner/bound pairings, {BOUND_STREAMS} streams each, regret <= bound "
           f"at every prefix ({elapsed:.1f}s < 60s)")


def test_criterion_4_stability_decomposition_and_weak_bound_dominance():
    result = suites.suite_stability_diagnostic()
    for line in result.lines:
        print("   ", line)
    report(4, result.passed,
           "decomposition RHS >= regret on every run; weak bound strictly dominates")


def test_criterion_5_oracle_certification():
    result = suites.suite_oracle_closed_form(count=1000, smooth_count=500, seed0=0)
    for line in result.lines:
        print("   ", line)
    report(5, result.passed,
           "every closed form within 1e-6 of the numeric oracle; both inequality "
           "families hold, equality gap <= 1e-9 on the smooth subfamily")


def test_criterion_6_projection_families():
    result = suites.suite_projection_families()
    for line in result.lines:
        print("   ", line)
    report(6, result.passed,
           "within-family agreement <= 1e-9 on 100 ball streams; lazy and greedy "
           "split by exactly 1.0 at the third point")


def test_criterion_7_sparsity_contrast_on_logistic_l1():
    ftrl_nz, md_nz = suites.sparsity_contrast()
    report(7, ftrl_nz <= md_nz,
           f"accumulated-penalty learner at least as sparse: {ftrl_nz} vs {md_nz} "
           f"nonzeros of 50")
