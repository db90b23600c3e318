"""One forced response per distinct model in the trajectory-decomposition check.

A simulation splits into ``_forced`` (the matrix exponential, the squares of
the stepper and the up-sweep of the scan over the drives, none of which
depends on x0) and ``_respond`` (the down-sweep from x0, and the outputs). The decomposition check runs 4p + 1
simulations for p nodes, but derived models that share their state and input
coordinates share one forced part: the downstream model runs twice, and a node
with no strict down-set (up-set) has a downstream (upstream) model on the local
model's coordinates. Each forced part is dropped after its last run.
"""

import random
import weakref

import numpy as np
import pytest

from conftest import random_system
from posetsys import sim
from posetsys.corpus import load_corpus_system
from posetsys.poset import build_poset
from posetsys.sim import InputSignal, simulate, verify_trajectory_decomposition
from posetsys.system import derived

KINDS = ("local", "downstream", "upstream")


def _chain():
    return random_system(random.Random(3), build_poset(4, [(1, 2), (2, 3), (3, 4)]))


def _diamond():
    return random_system(random.Random(5), build_poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)]))


SYSTEMS = {"chain": _chain, "diamond": _diamond, "exLargeEx": lambda: load_corpus_system("exLargeEx")}


def _distinct_models(sys):
    """The distinct (state, input) coordinate sets of the derived models, from ``derived``."""
    keys = set()
    for kind in KINDS:
        for i in sys.poset.nodes:
            model = derived(sys, kind, i)
            keys.add((tuple(sys.n.indices(model.n.nonempty)), tuple(sys.m.indices(model.m.nonempty))))
    return keys


def _signal(sys, steps=40):
    values = np.random.default_rng(11).uniform(-1.0, 1.0, (steps, sys.input_dim))
    return InputSignal(step=0.05, values=values)


def _counting_expm(monkeypatch):
    calls = []
    expm = sim.expm

    def counted(m):
        calls.append(np.shape(m))
        return expm(m)

    monkeypatch.setattr(sim, "expm", counted)
    return calls


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_check_takes_one_exponential_per_distinct_model(monkeypatch, name):
    sys = SYSTEMS[name]()
    calls = _counting_expm(monkeypatch)
    report = verify_trajectory_decomposition(sys, np.ones(sys.state_dim), _signal(sys))
    assert report.ok, report.describe()
    distinct = _distinct_models(sys)
    assert len(distinct) < 3 * sys.poset.p
    assert len(calls) == 1 + len(distinct)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_simulate_takes_one_exponential(monkeypatch, name):
    sys = SYSTEMS[name]()
    calls = _counting_expm(monkeypatch)
    simulate(sys, None, _signal(sys))
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_each_forced_part_lives_until_its_last_run(monkeypatch, name):
    sys = SYSTEMS[name]()
    made, runs = [], []
    forced, respond = sim._forced, sim._respond

    def tracked_forced(*args):
        part = forced(*args)
        made.append(weakref.ref(part))
        return part

    def tracked_respond(part, *args):
        # which forced part this run uses, and which forced parts are alive during it
        runs.append((next(k for k, ref in enumerate(made) if ref() is part),
                     {k for k, ref in enumerate(made) if ref() is not None}))
        return respond(part, *args)

    monkeypatch.setattr(sim, "_forced", tracked_forced)
    monkeypatch.setattr(sim, "_respond", tracked_respond)
    verify_trajectory_decomposition(sys, np.ones(sys.state_dim), _signal(sys))
    assert len(runs) == 4 * sys.poset.p + 1
    # every part is made for the run that first uses it; it must be alive from then to its last run
    first, last = {}, {}
    for t, (k, _) in enumerate(runs):
        first.setdefault(k, t)
        last[k] = t
    for t, (_, alive) in enumerate(runs):
        assert alive == {k for k in first if first[k] <= t <= last[k]}, t
    assert all(ref() is None for ref in made)


def test_restrict_keeps_the_step_and_the_chosen_columns():
    u = InputSignal(step=0.25, values=np.arange(12.0).reshape(4, 3))
    part = u.restrict([2, 0])
    assert part.step == 0.25 and part.width == 2 and part.steps == 4
    assert np.array_equal(part.values, u.values[:, [2, 0]])
    assert np.array_equal(u.restrict([]).values, np.zeros((4, 0)))
