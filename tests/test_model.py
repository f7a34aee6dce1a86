import dataclasses
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exact_points, local_round_matches_global, local_step
from robogather import gather2d, model
from robogather.model import DemonicAction, FrameParams
from robogather.scalars import EXACT, FLOAT64, Point

P = EXACT.point

IDENT = FrameParams(F(1), F(1), F(0), False)


def all_active(n, fp=IDENT):
    return DemonicAction(tuple(fp for _ in range(n)))


def none_active(n):
    return DemonicAction(tuple(None for _ in range(n)))


def some_active(n, ids, fp=IDENT):
    return DemonicAction(tuple(fp if i in ids else None for i in range(n)))


# --- spectrum ------------------------------------------------------------------


def _pairs(s):
    """The (tower, multiplicity) pairs of a spectrum, in its order."""
    return list(zip(s.towers, s.mults))


def test_spectrum_of_examples():
    conf = (P(1, 2), P(1, 2), P(1, 2))
    assert _pairs(model.spectrum_of(conf, EXACT)) == [(P(1, 2), 3)]
    conf = (P(0, 0), P(0, 0), P(4, 4))
    assert _pairs(model.spectrum_of(conf, EXACT)) == [(P(0, 0), 2), (P(4, 4), 1)]
    assert isinstance(model.spectrum_of(conf, EXACT), model.View)


@given(st.permutations(range(5)))
def test_spectrum_invariant_under_id_permutation(perm):
    locs = (P(0, 0), P(0, 0), P(1, 1), P(2, 2), P(1, 1))
    permuted = tuple(locs[i] for i in perm)
    assert dict(_pairs(model.spectrum_of(locs, EXACT))) == dict(_pairs(model.spectrum_of(permuted, EXACT)))


def test_spectrum_clusters_within_float_tolerance():
    conf = (Point(1.0, 1.0), Point(1.0 + 1e-12, 1.0 - 1e-12), Point(5.0, 5.0))
    s = model.spectrum_of(conf, FLOAT64)
    assert _pairs(s) == [(Point(1.0, 1.0), 2), (Point(5.0, 5.0), 1)]


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
def test_spectrum_towers_are_the_first_robots_objects(backend):
    # equal values held by distinct Point objects (and, exact, distinct
    # Fraction objects): each tower is the first robot's own object there
    a, b = backend.point(F(1, 2), F(-3)), backend.point(4, F(7, 3))
    conf = (Point(*a), b, Point(a.x, a.y), a, backend.point(F(2, 4), F(-6, 2)), Point(*b), b)
    s = model.spectrum_of(conf, backend)
    assert s.mults == (4, 3)
    towers = list(s.towers)
    assert len(towers) == 2 and towers[0] is conf[0] and towers[1] is conf[1]


@st.composite
def _configs_and_orders(draw, backend):
    """A configuration with repeated locations, some robots at an equal but
    distinct ``Point`` object, and the same robots in another order. The
    locations are small rationals, on floats their values, far apart
    against the tolerance."""
    pool = draw(st.lists(exact_points, min_size=1, max_size=5, unique=True))
    if not backend.is_exact:
        pool = [Point(float(x), float(y)) for x, y in pool]
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=12))
    conf = tuple(Point(*p) if copy else p for p, copy in picks)
    return conf, tuple(draw(st.permutations(conf)))


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
@given(data=st.data())
def test_the_spectrum_is_the_configurations_multiset(backend, data):
    # towers in first-seen order, each the first robot object at its
    # location, and the robot counts, index-aligned; what is read from the
    # spectrum does not depend on the order of the robots
    conf, permuted = data.draw(_configs_and_orders(backend))
    s = model.spectrum_of(conf, backend)
    counts = Counter(conf)
    assert list(s.towers) == list(counts) and s.mults == tuple(counts.values())
    for tower in s.towers:
        assert tower is next(p for p in conf if p == tower)
    assert gather2d.classify_phase(s, backend) is gather2d.classify_phase(model.spectrum_of(permuted, backend), backend)
    assert gather2d.summarize(conf, backend) == gather2d.summarize(permuted, backend)


# --- round -----------------------------------------------------------------------


def test_round_all_inactive_is_identity():
    r = gather2d.robogram(EXACT)
    conf = (P(0, 0), P(3, 1), P(-2, 5))
    assert model.round(r, none_active(3), conf, EXACT) == conf


def test_round_gathered_is_fixed():
    r = gather2d.robogram(EXACT)
    conf = (P(2, 2),) * 4
    assert model.round(r, all_active(4), conf, EXACT) == conf


def test_round_majority_stack():
    r = gather2d.robogram(EXACT)
    conf = (P(0, 0), P(0, 0), P(7, 1))
    frames = [
        FrameParams(F(2), F(3, 5), F(4, 5), False),
        FrameParams(F(1, 3), F(0), F(1), True),
        FrameParams(F(5), F(1), F(0), True),
    ]
    da = DemonicAction(tuple(frames))
    assert model.round(r, da, conf, EXACT) == (P(0, 0), P(0, 0), P(0, 0))


def test_round_rejects_mismatched_sizes():
    r = gather2d.robogram(EXACT)
    with pytest.raises(ValueError):
        model.round(r, all_active(2), (P(0, 0),) * 3, EXACT)


@given(st.permutations(range(4)))
def test_round_anonymity(perm):
    # relabeling robots relabels the round result the same way
    r = gather2d.robogram(EXACT)
    conf = (P(0, 0), P(0, 0), P(3, 3), P(5, 1))
    frames = [
        FrameParams(F(1), F(1), F(0), False),
        FrameParams(F(2), F(0), F(1), False),
        None,
        FrameParams(F(1, 2), F(3, 5), F(4, 5), True),
    ]
    da = DemonicAction(tuple(frames))
    base = model.round(r, da, conf, EXACT)
    conf_p = tuple(conf[perm[i]] for i in range(4))
    da_p = DemonicAction(tuple(frames[perm[i]] for i in range(4)))
    permuted = model.round(r, da_p, conf_p, EXACT)
    assert permuted == tuple(base[perm[i]] for i in range(4))


def test_round_float_robot_sent_to_its_origin_stays_exactly():
    # this frame sends the origin back to (0.30000000000000004, -1.7000000000000002)
    # through the inverse frame; a robot whose destination is its own origin
    # must keep its exact coordinates instead
    loc = Point(0.3, -1.7)
    fp = FrameParams(2.5, math.cos(0.7), math.sin(0.7), True)
    stay = lambda s: FLOAT64.origin()  # noqa: E731
    conf = (loc, Point(4.0, 1.0), Point(-2.0, 3.0))
    da = DemonicAction((fp, None, fp))
    assert model.round(stay, da, conf, FLOAT64) == conf
    gathered = (loc,) * 3
    assert model.round(gather2d.robogram(FLOAT64), all_active(3, fp), gathered, FLOAT64) == gathered


@pytest.mark.parametrize("zoom", [1.0, 0.1, 10.0])
def test_round_float_tolerance_band_independent_of_zoom(zoom):
    # robots 0 and 1 are 2e-9 apart, two towers under eps_abs = 1e-9; a frame
    # zoomed by 1/10 puts them 2e-10 apart, which the tolerance would merge
    conf = (Point(0.0, 0.0), Point(2e-9, 0.0), Point(5.0, 0.0), Point(5.0, 0.0))
    da = DemonicAction((FrameParams(zoom, 1.0, 0.0, False), None, None, None))
    after = model.round(gather2d.robogram(FLOAT64), da, conf, FLOAT64)
    assert after[0] == Point(5.0, 0.0)
    assert local_round_matches_global(conf, da, FLOAT64)


def test_pgm_compatibility_equal_spectra_equal_outputs():
    r = gather2d.robogram(EXACT)
    s1 = model.spectrum_of((P(0, 0), P(1, 1), P(1, 1)), EXACT)
    s2 = model.spectrum_of((P(1, 1), P(0, 0), P(1, 1)), EXACT)
    assert dict(_pairs(s1)) == dict(_pairs(s2))
    assert r(s1) == r(s2)


# --- moving ----------------------------------------------------------------------


def _movers(r, da, conf):
    after = model.round(r, da, conf, EXACT)
    return [i for i in range(len(conf)) if conf[i] != after[i]]


def test_moving_examples():
    r = gather2d.robogram(EXACT)
    conf = (P(0, 0), P(0, 0), P(7, 1))
    assert _movers(r, none_active(3), conf) == []
    gathered = (P(1, 1),) * 3
    assert _movers(r, all_active(3), gathered) == []
    da = some_active(3, {2})
    assert _movers(r, da, conf) == [2]
    # activated robots already at the majority tower do not move
    da = some_active(3, {0, 2})
    assert _movers(r, da, conf) == [2]


# --- execute ---------------------------------------------------------------------


def _round_robin_demon(n):
    def demon(i, conf):
        return some_active(n, {i % n})

    return demon


def test_execute_horizon_zero():
    conf = (P(0, 0), P(0, 0), P(7, 1))
    trace = model.execute(local_step(EXACT), _round_robin_demon(3), conf, 0)
    assert trace.configs() == [conf]
    assert trace.configs()[-1] == conf


def test_execute_gathered_start_is_constant():
    conf = (P(4, 4),) * 3
    trace = model.execute(local_step(EXACT), lambda i, c: all_active(3), conf, 5)
    assert all(cfg == conf for cfg in trace.configs())


def test_execute_majority_round_robin_hand_simulation():
    # a(x2), b(x1): only the robot at b ever moves; gathered by round 3
    r = gather2d.robogram(EXACT)
    conf = (P(0, 0), P(0, 0), P(7, 1))
    trace = model.execute(local_step(EXACT), _round_robin_demon(3), conf, 3)
    assert trace.configs()[-1] == (P(0, 0), P(0, 0), P(0, 0))
    # chain integrity
    for i, step in enumerate(trace.steps):
        prev = trace.configs()[i]
        assert model.round(r, step.action, prev, EXACT) == step.config


def test_execute_stop_predicate():
    conf = (P(0, 0), P(0, 0), P(7, 1))
    trace = model.execute(
        local_step(EXACT),
        lambda i, c: all_active(3),
        conf,
        10,
        stop=lambda c: gather2d.gathering_point(c, EXACT) is not None,
    )
    assert trace.stopped_early
    assert len(trace.steps) == 1


# --- demonic actions --------------------------------------------------------------


_OTHER = FrameParams(F(1, 2), F(0), F(1), True)


@given(st.lists(st.sampled_from([None, IDENT, _OTHER]), max_size=10))
def test_activated_is_found_once_and_equals_its_definition(steps):
    steps = tuple(steps)
    da = DemonicAction(steps)
    assert da.activated() == tuple(i for i, fp in enumerate(steps) if fp is not None)
    assert da.activated() is da.activated()
    # the cached ids are no field: equality, hashing and repr read steps alone
    twin = DemonicAction(steps)
    assert da == twin and hash(da) == hash(twin) == hash((steps,))
    assert [f.name for f in dataclasses.fields(da)] == ["steps"]
    assert repr(da) == f"DemonicAction(steps={steps!r})"
    if steps:
        flipped = DemonicAction((None if steps[0] is not None else IDENT,) + steps[1:])
        assert flipped != da and flipped.activated() != da.activated()


# --- fairness ---------------------------------------------------------------------


def test_check_k_fair_round_robin():
    n = 4
    actions = [some_active(n, {i % n}) for i in range(12)]
    assert model.check_k_fair(actions, n)
    assert not model.check_k_fair(actions, n - 1)


def test_check_k_fair_never_activates_zero():
    n = 3
    actions = [some_active(n, {1 + (i % 2)}) for i in range(10)]
    assert not model.check_k_fair(actions, 5)


def test_check_k_fair_all_active():
    actions = [all_active(3) for _ in range(4)]
    assert model.check_k_fair(actions, 1)


def test_check_k_fair_short_stream_is_vacuous():
    actions = [some_active(3, {0})]
    assert model.check_k_fair(actions, 2)


# values that pairwise share a numerator (1/2, 1/3, 1; 2/3, 2/5) or a
# denominator (1/2, -1/2; 1/3, 2/3), so distinct points often differ in just
# one of the four integers of their coordinates
_small_rationals = st.sampled_from([F(1, 2), F(1, 3), F(1), F(-1, 2), F(2, 3), F(2, 5)])


@st.composite
def _exact_configs(draw):
    # a few base points, each robot at one of them, some through an unreduced
    # Fraction (2/4 for 1/2) so equal values arrive as distinct objects
    pool = draw(st.lists(st.builds(Point, _small_rationals, _small_rationals), min_size=1, max_size=6))
    conf = []
    for p in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)):
        k = draw(st.integers(1, 3))
        conf.append(Point(F(p.x.numerator * k, p.x.denominator * k), p.y))
    return tuple(conf)


@given(_exact_configs())
def test_exact_spectrum_equals_counter_with_key_order(conf):
    # an oracle by scanning, not by hashing: the towers are the robots equal
    # to no earlier robot, in robot order, each keyed by that first robot
    # object and counting the robots equal to it
    spec = model.spectrum_of(conf, EXACT)
    firsts = [p for i, p in enumerate(conf) if all(q != p for q in conf[:i])]
    assert len(spec.towers) == len(spec.mults) == len(firsts)
    for key, mult, first in zip(spec.towers, spec.mults, firsts):
        assert key is first
        assert mult == sum(q == first for q in conf)
