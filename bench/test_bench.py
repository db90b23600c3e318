"""Checks of the benchmark's own generator and tracer (run with the test suite)."""

import ladder
from tracer import Tracer

import posetsys
from posetsys import corpus, report
from posetsys.reachability import profile as reach_profile


def test_reference_seed_gives_the_roadmap_dimensions():
    systems = ladder.generate(ladder.REFERENCE_SEED)
    assert [systems[(r.name, 0)].state_dim for r in ladder.RUNGS] == [9, 22, 37]


def test_one_seed_gives_byte_identical_json():
    first = ladder.generate(7, replicas=2)
    second = ladder.generate(7, replicas=2)
    assert first.keys() == second.keys()
    for key in first:
        assert ladder.system_json(first[key]) == ladder.system_json(second[key])


def test_seeds_share_shapes_and_differ_in_entries():
    a = ladder.generate(2)[("n9", 0)]
    b = ladder.generate(3)[("n9", 0)]
    assert (a.poset, a.n, a.m, a.r) == (b.poset, b.n, b.m, b.r)
    assert ladder.system_json(a) != ladder.system_json(b)


def test_tracer_sees_calls_through_import_time_bindings():
    system = corpus.load_corpus_system("feedback-obstruction")
    tracer = Tracer().install()
    try:
        assert report.reach_profile is not reach_profile
        with tracer.op("analyze"):
            report.analyze(system)
    finally:
        tracer.uninstall()
    assert report.reach_profile is posetsys.reachability_profile
    counts = [tracer.calls_per_op("analyze", name) for name in (
        "reachability.profile", "observability.profile", "reduction.kalman",
        "reachability.reachable", "observability.unobservable")]
    assert counts == [7, 6, 3, 10, 9]
    assert tracer.calls("subspace.Subspace.init") > 0
    assert tracer.counters["ctrb.columns"] >= tracer.counters["ctrb.rank"] > 0
