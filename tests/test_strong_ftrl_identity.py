"""The Strong FTRL Lemma as an identity on every checked run.

Before its last term is dropped the lemma is an equality:

    regret_t(x*) = r_{0:t}(x*) + sum_{s<=t} stability_s + h_{0:t}(x_{t+1}) - h_{0:t}(x*),

so the decomposition RHS of ``run_rounds`` less the cumulative regret is the
gap h_{0:t}(x*) - h_{0:t}(x_{t+1}), and that gap is >= 0 because x_{t+1}
minimizes h_{0:t}.  The gap is taken from the family's ``h_rows`` at x*.
Only linear and quadratic losses are covered: on logistic losses the RHS
less the regret also holds the linearization gap.
"""

import numpy as np
import pytest

from ocokit import bounds, suites
from ocokit.cli import _DEFAULTS, build_run
from ocokit.driver import run_rounds

T = 64
COMPOSITE = (("ftrl-l1", "composite", "random-linear"),
             ("md-l1", "mirror-descent", "random-linear"))


def identity_holds(run) -> bool:
    """|rhs - regret - gap| <= 1e-9 max(1, |rhs|) and gap >= -1e-9 at every prefix."""
    trace = run.trace
    family = bounds._family(trace.reg_kind)
    sigma = trace.sigmas() if family.reads_sigma else None
    at_star = np.broadcast_to(run.x_star, trace.iterates.shape)
    (h_star, _), (h_next, _) = family.h_rows(trace, sigma, at_star, trace.next_iterates)
    gap = h_star - h_next
    rhs = run.record.strong_ftrl_rhs
    residual = np.abs(rhs - run.record.cum_regret - gap)
    return bool(np.all(residual <= 1e-9 * np.maximum(1.0, np.abs(rhs))) and np.all(gap >= -1e-9))


def cli_run(learner, bound, stream, k):
    """Run ``k`` of an ``ocokit run`` config: n in [2, 5] and lambda in [0, 0.5) from its seed."""
    rng = np.random.default_rng(1000 + k)
    cfg = dict(_DEFAULTS, learner=learner, bound=bound, stream=stream, T=T, seed=k,
               n=int(rng.integers(2, 6)), **{"lambda": float(rng.uniform(0.0, 0.5))})
    learner, stream, rule, bc, comparator_set = build_run(cfg)
    return run_rounds(learner, stream, T, rule, bc, comparator_set)


@pytest.mark.parametrize("pair_name", list(suites._bound_pairings(suites.BOUND_T)))
def test_the_identity_holds_on_every_bound_suite_run(pair_name):
    runs = suites.run_bound_experiments()[pair_name]
    failed = [k for k, run in enumerate(runs) if not identity_holds(run)]
    assert not failed, f"{pair_name}: runs {failed[:5]}"


@pytest.mark.parametrize("config", COMPOSITE, ids=lambda config: config[0])
def test_the_identity_holds_on_composite_runs(config):
    failed = [k for k in range(60) if not identity_holds(cli_run(*config, k))]
    assert not failed, f"{config[0]}: runs {failed[:5]}"


@pytest.mark.parametrize("config", suites._PAIRINGS + COMPOSITE, ids=lambda config: config[0])
def test_a_stability_term_off_by_one_part_in_a_million_breaks_only_the_identity(
        monkeypatch, config):
    original = bounds._stability_terms

    def scaled(trace, sigma):  # the largest term, so that the >= check still passes
        terms = original(trace, sigma)
        terms[int(np.argmax(terms))] *= 1.0 + 1e-6
        return terms

    assert identity_holds(cli_run(*config, 0))
    monkeypatch.setattr(bounds, "_stability_terms", scaled)
    mutated = cli_run(*config, 0)
    assert mutated.decomposition_ok
    assert not identity_holds(mutated)
