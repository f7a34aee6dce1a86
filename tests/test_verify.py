import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    SecRuns,
    closed_form_frame,
    distinct_configs,
    executed_run,
    first_gathered_round,
    gathered_stable_stop,
    local_round_matches_global,
    local_step,
    misaligned_summaries,
)
from robogather import cli, frames, gather2d, geometry, model, traceio, verify
from robogather.gather2d import Phase
from robogather.model import DemonicAction, FrameParams, Trace, TraceStep
from robogather.scalars import EXACT, FLOAT64, FLOAT_INPUT_MAX, FloatBackend, Point

P = EXACT.point

IDENT = FrameParams(F(1), F(1), F(0), False)


def all_active(n):
    return DemonicAction(tuple(IDENT for _ in range(n)))


# --- strategies -----------------------------------------------------------------


@pytest.mark.parametrize("kind", verify.FUZZ_KINDS)
@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_strategies_are_k_fair_by_construction(kind, backend):
    n = 5
    strat = verify.Strategy(kind, n, backend, seed=3)
    conf = verify.gen_initial(n, random.Random(0), backend)
    actions = []
    cur = conf
    r = gather2d.robogram(backend)
    for i in range(4 * strat.k + 5):
        da = strat(i, cur)
        actions.append(da)
        cur = model.round(r, da, cur, backend)
    assert model.check_k_fair(actions, strat.k)


def test_strategy_frames_are_valid():
    strat = verify.Strategy("all_active", 4, EXACT, seed=9)
    conf = (P(0, 0), P(1, 1), P(2, 2), P(3, 3))
    da = strat(0, conf)
    for fp in da.steps:
        assert fp is not None
        assert fp.zoom > 0
        assert fp.c * fp.c + fp.s * fp.s == 1
        assert F(1, 10) <= fp.zoom <= F(10)


def test_exact_frame_sample_matches_the_closed_form_draw():
    # the tables make the same draws, in the same order, as building each
    # zoom and unit pair from the draws directly, and a support point drawn
    # again is the same shared object
    for seed in range(1000):
        rng, ref = random.Random(seed), random.Random(seed)
        fp = verify.DEFAULT_POLICY.sample(rng, EXACT)
        assert fp == closed_form_frame(ref)
        assert rng.getstate() == ref.getstate()
        assert verify.DEFAULT_POLICY.sample(random.Random(seed), EXACT) is fp


def test_unfair_strategy_never_activates_zero():
    strat = verify.Strategy("unfair_skip0", 4, EXACT, seed=1)
    conf = (P(0, 0), P(1, 1), P(2, 2), P(3, 3))
    actions = [strat(i, conf) for i in range(12)]
    assert all(0 not in a.activated() for a in actions)
    assert not model.check_k_fair(actions, strat.k)


def test_adversarial_requires_script():
    with pytest.raises(ValueError):
        verify.Strategy("adversarial", 3, EXACT, seed=0)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        verify.Strategy("nope", 3, EXACT, seed=0)


@pytest.mark.parametrize("k", [0, -3])
def test_strategy_rejects_k_below_one(k):
    # k=0 is a bound, not "not given": it must not fall back to the kind's k
    with pytest.raises(ValueError, match="at least 1"):
        verify.Strategy("random_kfair", 5, EXACT, seed=0, k=k)
    assert verify.Strategy("random_kfair", 5, EXACT, seed=0, k=1).k == 1
    assert verify.Strategy("random_kfair", 5, EXACT, seed=0).k == 10


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so its calls are appended to the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_kind_of_frame_work_happens_once(monkeypatch, tmp_path):
    # importing the demon builds no FrameParams: the support table fills on
    # first draw
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import gc, robogather.model as m, robogather.verify as v; "
        "print(sum(type(o) is m.FrameParams for o in gc.get_objects()), v._EXACT_FRAMES.count(None))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout.split() == ["0", str(len(verify._EXACT_FRAMES))], done.stderr

    # an exact FrameParams is checked once, when it is built: a seeded
    # exact run checks each object the demon's table builds once, however
    # many activations share it (seed 116: 115 activations, 107 objects)
    monkeypatch.setattr(verify, "_EXACT_FRAMES", [None] * len(verify._EXACT_FRAMES))
    checks = _counting(monkeypatch, frames, "check_params")
    spec, trace, rep = verify.run_one(116, EXACT)
    assert rep.ok
    used = [fp for st in trace.steps for fp in st.action.steps if fp is not None]
    assert len(checks) == len({id(fp) for fp in used}) < len(used)

    # check of the written trace builds, and so checks, one FrameParams per
    # distinct frame
    path = str(tmp_path / "run.jsonl")
    traceio.write_trace(path, trace, EXACT, k=spec.k)
    checks.clear()
    assert cli.main(["check", "--trace", path]) == cli.EXIT_OK
    assert len(checks) == len(set(used)) < len({id(fp) for fp in used})

    # an activation in a gathered configuration builds no point either way;
    # a view builds a point only for a tower the robogram reads (an exact
    # view's towers, geometry.IntegerPoints, build theirs through
    # geometry.Point, as does the SEC's center)
    built = _counting(monkeypatch, geometry, "Point")
    mapped_back = _counting(monkeypatch, frames, "preimage")
    rng, r = random.Random(0), gather2d.robogram(EXACT)
    frame_params = [verify.DEFAULT_POLICY.sample(rng, EXACT) for _ in range(4)]
    gathered = (P(3, F(1, 2)),) * 4
    assert model.round(r, DemonicAction(tuple(frame_params)), gathered, EXACT) == gathered
    assert built == [] and mapped_back == []
    shared = P(0, 0)  # a tower's key is the point of its first robot
    conf = (shared, shared, P(5, 5), P(-2, 7))
    for i, fp in enumerate(frame_params):
        built.clear()
        mapped_back.clear()
        steps = tuple(fp if j == i else None for j in range(4))
        model.round(r, DemonicAction(steps), conf, EXACT)
        # a majority view builds exactly one point, its highest tower, unless
        # that is the robot's own (the origin), which is the one destination
        # mapped back
        assert len(built) == len(mapped_back) == (conf[i] is not shared)

    # an analysed view builds its boundary, less the robot's own tower, and
    # the SEC's center, and no other tower: here four corners on the SEC
    # around three inner towers (dirty), or around one tower at the SEC
    # center (clean), which ``in`` finds on the integers
    corners = (P(0, 0), P(4, 0), P(0, 4), P(4, 4))
    for conf in (corners + (P(1, 1), P(2, 1), P(1, 2)), corners + (P(2, 2),)):
        for i in range(len(conf)):
            built.clear()
            mapped_back.clear()
            steps = tuple(frame_params[i % 4] if j == i else None for j in range(len(conf)))
            model.round(r, DemonicAction(steps), conf, EXACT)
            others_on_sec = len(corners) - (conf[i] in corners)
            assert len(built) == others_on_sec + 1


# sha256 of the first 3·k actions of each demon at seed 11 from gen_initial(5,
# Random(0)), the configuration advancing by model.round. They pin the RNG draw
# order and the frames, on which bit-exact trace replay depends.
ACTION_STREAM_SHA256 = {
    ("round_robin", "exact"): "49d9b02213c5d433714e0962d357a497f14f8268411e74a13a0698904b603cb5",
    ("round_robin", "float"): "80ffa3c6937eeaef76f26246e25a487f3323be181b87c688b060dc824c9bbc0a",
    ("all_active", "exact"): "2a799a208d8459b0a34be2e5e8da322c06395f4a1587e34ebc1eb66f23390836",
    ("all_active", "float"): "b5c8d597c9ce23a2922e75944ebf8dd533ca65039c20613a040ed5fc23a34a4e",
    ("random_kfair", "exact"): "8215e227d70d942aa38133f6ae570837cc1649a33c644d0f647c90974552e20e",
    ("random_kfair", "float"): "81dcfa0f7c3a7010611055c0069a954cebe7eba12a564ba7c8d3674ed0e9b586",
    ("single_mover", "exact"): "084828640f06584de4200cd8d1fb050b35b57abd55e38032d2ce4a469361aaf8",
    ("single_mover", "float"): "53807671be7523dc6f354ccad7cf521a378b8d4c10f4d34309fb0b10b5eab66c",
    ("adversarial", "exact"): "debb94cc06e293b2ff9f1f0f4c421a94f0f3854f07d39b9751c5d800a82ea10d",
    ("adversarial", "float"): "fcd975a3d20b860a7ac7e477ced7fad79397496a327e518aabfa4c935acadd6c",
    ("unfair_skip0", "exact"): "ae196df69e9830c16e84ce66f3f56deae24cbc8936867830236ef851596ea1c3",
    ("unfair_skip0", "float"): "f0f891b4b0937c49e822e047c5d0aaffd71e1c3aa2ccb34ac28751aab62e1856",
}


@pytest.mark.parametrize("kind", tuple(verify.DEMON_KINDS))
@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_strategy_action_stream_is_pinned(kind, backend):
    n = 5
    script = [[0, 1], [2], [3, 4]] if kind == "adversarial" else None
    strat = verify.Strategy(kind, n, backend, seed=11, script=script)
    cur = verify.gen_initial(n, random.Random(0), backend)
    r = gather2d.robogram(backend)
    h = hashlib.sha256()
    for i in range(3 * strat.k):
        da = strat(i, cur)
        for j, fp in enumerate(da.steps):
            if fp is not None:
                h.update(f"{j}:{fp.zoom}:{fp.c}:{fp.s}:{fp.reflect};".encode())
        h.update(b"\n")
        cur = model.round(r, da, cur, backend)
    name = "exact" if backend.is_exact else "float"
    assert h.hexdigest() == ACTION_STREAM_SHA256[kind, name]


def test_single_mover_activates_one_robot_at_its_destination():
    # a majority tower: robots 0-2 already stand on the common destination
    conf = (P(0, 0), P(0, 0), P(0, 0), P(1, 0), P(2, 3))
    dests = gather2d.round_global(range(5), conf, EXACT)
    stayers = {i for i in range(5) if conf[i] == dests[i]}
    assert stayers == {0, 1, 2}
    strat = verify.Strategy("single_mover", 5, EXACT, seed=2)
    for i in range(strat.k - 1):  # no robot is due before round k-1
        active = strat(i, conf).activated()
        assert len(active) == 1 and active[0] in stayers


# --- gen_initial ----------------------------------------------------------------


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_gen_initial_never_forbidden(backend):
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 8)
        conf = verify.gen_initial(n, rng, backend)
        assert len(conf) == n
        assert not gather2d.forbidden(conf, backend)
        for p in conf:
            assert abs(float(p.x)) <= 10 and abs(float(p.y)) <= 10


def test_gen_initial_pool_one_gives_gathered():
    conf = verify.gen_initial(4, random.Random(0), EXACT, pool_size=1)
    assert gather2d.gathering_point(conf, EXACT) is not None


def test_gen_initial_even_split_resampled():
    rng = random.Random(1)
    for _ in range(50):
        conf = verify.gen_initial(4, rng, EXACT, pool_size=2)
        s = model.spectrum_of(conf, EXACT)
        assert sorted(s.mults) != [2, 2]


def test_gen_initial_produces_multiplicity_points():
    rng = random.Random(2)
    hits = 0
    for _ in range(50):
        conf = verify.gen_initial(6, rng, EXACT)
        s = model.spectrum_of(conf, EXACT)
        if any(m > 1 for m in s.mults):
            hits += 1
    assert hits > 10


def test_gen_initial_rejects_small_n():
    with pytest.raises(ValueError):
        verify.gen_initial(2, random.Random(0), EXACT)


# --- check_trace -----------------------------------------------------------------


def _run_trace(conf, n_rounds=6, seed=0, backend=EXACT, kind="round_robin"):
    strat = verify.Strategy(kind, len(conf), backend, seed=seed)
    trace = model.execute(local_step(backend), strat, conf, n_rounds)
    return trace, strat


def test_check_trace_gathered_start_all_pass():
    conf = (P(1, 1),) * 3
    trace, strat = _run_trace(conf)
    rep = verify.check_trace(trace, EXACT, declared_k=strat.k)
    assert rep.ok
    assert rep.violations_of("gather_persistence") == 0
    assert all(s.checks > 0 for s in rep.properties.values())


def test_check_trace_majority_hand_simulation():
    conf = (P(0, 0), P(0, 0), P(7, 1))
    strat = verify.Strategy("all_active", 3, EXACT, seed=0)
    trace = model.execute(local_step(EXACT), strat, conf, 3)
    rep = verify.check_trace(trace, EXACT, declared_k=strat.k)
    assert rep.ok
    assert first_gathered_round(trace, EXACT) == 1


def test_check_trace_detects_teleport():
    conf = (P(0, 0), P(0, 0), P(7, 1))
    trace, strat = _run_trace(conf, n_rounds=4)
    # corrupt: teleport robot 1 in the second recorded round
    step = trace.steps[1]
    bad_config = tuple(
        P(50, 50) if i == 1 else p for i, p in enumerate(step.config)
    )
    trace.steps[1] = TraceStep(step.index, step.action, bad_config)
    rep = verify.check_trace(trace, EXACT, declared_k=strat.k)
    assert not rep.ok
    assert rep.violations_of("chaining") > 0


def test_check_trace_flags_forbidden_round():
    # hand-built fake round that splits 4 robots 2/2: never_forbidden must fire
    conf = (P(0, 0), P(0, 0), P(0, 0), P(4, 4))
    bad = (P(0, 0), P(0, 0), P(4, 4), P(4, 4))
    trace = Trace(conf, [TraceStep(0, all_active(4), bad)])
    rep = verify.check_trace(trace, EXACT)
    assert rep.violations_of("never_forbidden") > 0
    assert rep.violations_of("chaining") > 0  # it is also not a real round


def test_check_trace_measure_violation_detected():
    # fake round: a robot moves away from the majority tower
    conf = (P(0, 0), P(0, 0), P(7, 1))
    bad = (P(0, 0), P(9, 9), P(7, 1))
    trace = Trace(conf, [TraceStep(0, all_active(3), bad)])
    rep = verify.check_trace(trace, EXACT)
    assert rep.violations_of("measure_decrease") > 0


def test_check_trace_same_destination_violation():
    conf = (P(0, 0), P(0, 0), P(7, 1), P(5, 5))
    bad = (P(0, 0), P(0, 0), P(1, 1), P(2, 2))
    trace = Trace(conf, [TraceStep(0, all_active(4), bad)])
    rep = verify.check_trace(trace, EXACT)
    assert rep.violations_of("same_destination") > 0


def test_check_trace_phase_transition_violation():
    # fake: gathered spectrum scattering back apart (GATHERED -> MAJORITY)
    conf = (P(0, 0), P(0, 0), P(0, 0))
    bad = (P(0, 0), P(0, 0), P(5, 5))
    trace = Trace(conf, [TraceStep(0, all_active(3), bad)])
    rep = verify.check_trace(trace, EXACT)
    assert rep.violations_of("phase_transition") > 0
    assert rep.violations_of("gather_persistence") > 0


def test_failures_carry_before_and_after_configurations():
    conf = (P(0, 0), P(0, 0), P(7, 1))
    bad = (P(0, 0), P(9, 9), P(7, 1))
    trace = Trace(conf, [TraceStep(0, all_active(3), bad)])
    rep = verify.check_trace(trace, EXACT, run_seed=42)
    failure = next(f for f in rep.failures if f.prop == "measure_decrease")
    assert failure.run_seed == 42
    assert failure.round_index == 0
    assert failure.before == conf
    assert failure.after == bad


@pytest.mark.parametrize(
    "a, b, equal",
    [
        ((P(0, 0), P(1, 2)), (P(0, 0), P(1, 2)), True),  # equal, distinct objects
        ((P(0, 0), P(F(1, 2), 2)), [Point(F(0), F(0)), Point(F(1, 2), F(2))], True),  # a tuple and a list
        ([P(0, 0), P(1, 2)], (P(0, 0), P(1, 3)), False),
        ((P(0, 0), P(1, 2)), (P(0, 0), P(1, 2), P(1, 2)), False),  # lengths differ
        ((P(0, 0), P(1, 2), P(1, 2)), (P(0, 0), P(1, 2)), False),
        ((), (), True),
    ],
    ids=["distinct-objects", "list-against-tuple", "one-differs", "longer", "shorter", "empty"],
)
def test_exact_configs_eq_is_the_robot_by_robot_compare(a, b, equal):
    assert all(p is not q for p, q in zip(a, b)) or not a
    assert verify._configs_eq(a, b, EXACT) is equal
    assert verify._configs_eq(b, a, EXACT) is equal
    assert (len(a) == len(b) and all(EXACT.points_eq(p, q) for p, q in zip(a, b))) is equal


def _nudged(p: Point, times: float, backend) -> Point:
    """``p`` with x moved by ``times`` the tolerance at x."""
    return Point(p.x + times * (backend.eps_abs + backend.eps_rel * abs(p.x)), p.y)


FP = FLOAT64.point
_ONE = FP(1.5, -2.0)
_ZERO = FP(0.0, 3.0)


@pytest.mark.parametrize(
    "a, b, equal",
    [
        ((_ONE, _ZERO), (_ONE, _ZERO), True),  # the very same objects
        ((FP(0, 0), FP(1.5, 2)), (FP(0, 0), FP(1.5, 2)), True),  # equal, distinct objects
        ((FP(0.0, 1), FP(2, 0.0)), (FP(-0.0, 1), FP(2, -0.0)), True),
        ((_ONE, _ZERO), (_nudged(_ONE, 0.5, FLOAT64), _ZERO), True),  # C says no, the loop yes
        ((_ONE, _ZERO), (_nudged(_ONE, 2, FLOAT64), _ZERO), False),
        ((FP(0, 0), FP(1.5, 2)), [FP(0, 0), FP(1.5, 2)], True),  # a tuple and a list
        ((FP(0, 0), FP(1.5, 2)), (FP(0, 0), FP(1.5, 2), FP(1.5, 2)), False),  # lengths differ
        ((FP(0, 0), FP(1.5, 2), FP(1.5, 2)), (FP(0, 0), FP(1.5, 2)), False),
        ((), (), True),
    ],
    ids=["same-objects", "distinct-objects", "signed-zeros", "half-tolerance", "twice-tolerance",
         "list-against-tuple", "longer", "shorter", "empty"],
)
def test_float_configs_eq_is_the_robot_by_robot_compare(a, b, equal):
    assert verify._configs_eq(a, b, FLOAT64) is equal
    assert verify._configs_eq(b, a, FLOAT64) is equal
    assert (len(a) == len(b) and all(FLOAT64.points_eq(p, q) for p, q in zip(a, b))) is equal


# Coordinates up to the float input cap, zeros of both signs and a few
# repeated values, so equal points and points one tolerance apart are common.
_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e6]),
    st.floats(min_value=-FLOAT_INPUT_MAX, max_value=FLOAT_INPUT_MAX, allow_nan=False),
)
_float_backends = st.sampled_from(
    [FLOAT64, FloatBackend(eps_abs=1e-3, eps_rel=0.0), FloatBackend(eps_abs=0.0, eps_rel=1e-6)]
)
# how each robot of the second configuration is made from the first's
_EDITS = ("same", "copy", "signed-zero", "half", "twice")


def _edited(p: Point, edit: str, backend) -> Point:
    if edit == "same":
        return p
    if edit == "copy":
        return Point(*p)
    if edit == "signed-zero":
        return Point(-p.x if p.x == 0 else p.x, -p.y if p.y == 0 else p.y)
    return _nudged(p, 0.5 if edit == "half" else 2, backend)


@given(
    _float_backends,
    st.lists(st.tuples(st.builds(Point, _coords, _coords), st.sampled_from(_EDITS)), max_size=6),
    st.sampled_from(("tuple", "list", "shorter", "longer")),
)
def test_float_configs_eq_and_gathered_at_are_the_points_eq_loops(backend, robots, shape):
    a = tuple(p for p, _ in robots)
    b = [_edited(p, edit, backend) for p, edit in robots]
    if shape == "shorter":
        b = b[:-1]
    elif shape == "longer":
        b.append(a[0] if a else FP(0, 0))
    if shape != "list":
        b = tuple(b)
    loop = len(a) == len(b) and all(backend.points_eq(p, q) for p, q in zip(a, b))
    assert verify._configs_eq(a, b, backend) is loop
    assert verify._configs_eq(b, a, backend) is loop
    # a configuration whose every robot is an edit of the one location pt
    pt = a[0] if a else FP(0, 0)
    conf = tuple(_edited(pt, edit, backend) for _, edit in robots)
    assert gather2d.gathered_at(pt, conf, backend) is all(backend.points_eq(loc, pt) for loc in conf)
    assert gather2d.gathered_at(pt, b, backend) is all(backend.points_eq(loc, pt) for loc in b)


def _float_run_with_a_mover_round():
    """The seed-0 float fuzz run, its first round in which a robot moves and
    the index of one mover there."""
    _spec, trace, rep = verify.run_one(0, FLOAT64)
    assert not rep.failures
    prev = trace.initial
    for i, step in enumerate(trace.steps):
        movers = [j for j in range(len(prev)) if not FLOAT64.points_eq(prev[j], step.config[j])]
        if movers:
            return trace, i, movers[0]
        prev = step.config
    raise AssertionError("the seed-0 float run has no mover round")


def _with_robot_moved(trace, i: int, robot: int, times: float) -> Trace:
    """``trace`` with robot ``robot`` of round ``i``'s recorded configuration
    moved by ``times`` the tolerance."""
    steps = list(trace.steps)
    step = steps[i]
    conf = list(step.config)
    conf[robot] = _nudged(conf[robot], times, FLOAT64)
    steps[i] = TraceStep(step.index, step.action, tuple(conf))
    return Trace(trace.initial, steps)


def test_float_check_within_the_tolerance_runs_the_loop_and_passes():
    trace, i, mover = _float_run_with_a_mover_round()
    nudged = _with_robot_moved(trace, i, mover, 0.5)
    recorded, moved = trace.steps[i].config, nudged.steps[i].config
    assert tuple(recorded) != tuple(moved) and verify._configs_eq(recorded, moved, FLOAT64)
    rep = verify.check_trace(nudged, FLOAT64)
    assert not rep.failures
    assert rep.properties["chaining"].checks == rep.properties["round_simplify"].checks == len(trace.steps)


def test_float_check_beyond_the_tolerance_fails_chaining_and_round_simplify():
    trace, i, mover = _float_run_with_a_mover_round()
    rep = verify.check_trace(_with_robot_moved(trace, i, mover, 1e3), FLOAT64)
    assert rep.violations_of("chaining") > 0
    assert rep.violations_of("round_simplify") > 0


def test_float_robot_leaving_the_gathering_point_fails_gather_persistence():
    trace, _i, _mover = _float_run_with_a_mover_round()
    first = first_gathered_round(trace, FLOAT64)
    assert first is not None and first < len(trace.steps)
    # trace.steps[first] is the round after the first gathered configuration
    rep = verify.check_trace(_with_robot_moved(trace, first, 0, 1e3), FLOAT64)
    assert rep.violations_of("gather_persistence") > 0


def _stress_degenerate_triangles(n_samples: int, seed: int = 0) -> dict[int, dict[str, int]]:
    """Characterize (never assert) float classification near the tolerance.

    For each perturbation size 10^e, e in {-6, -8, -9, -10, -12, -14},
    nudges one vertex of an exactly isosceles triangle and of a float
    equilateral triangle, and tallies how the classifier reads the result.
    Regular fuzzing stays clear of this regime by a separation margin; this
    map documents what happens inside it.
    """
    rng = random.Random(seed)
    out: dict[int, dict[str, int]] = {}
    for e in (-6, -8, -9, -10, -12, -14):
        eps = 10.0**e
        tally: dict[str, int] = {}
        for _ in range(n_samples):
            base = rng.uniform(1.0, 4.0)
            apex_y = rng.uniform(1.0, 4.0)
            if rng.random() < 0.5:
                tri = [
                    Point(0.0, 0.0),
                    Point(base, 0.0),
                    Point(base / 2 + rng.uniform(-eps, eps), apex_y),
                ]
            else:
                theta = rng.uniform(0.0, 2 * math.pi)
                tri = [
                    Point(
                        math.cos(theta + k * 2 * math.pi / 3) + (rng.uniform(-eps, eps) if k == 0 else 0.0),
                        math.sin(theta + k * 2 * math.pi / 3),
                    )
                    for k in range(3)
                ]
            kind = geometry.classify_triangle(*tri, FLOAT64).kind.value
            tally[kind] = tally.get(kind, 0) + 1
        out[e] = tally
    return out


def test_stress_mode_characterizes_degenerate_regime():
    profile = _stress_degenerate_triangles(60, seed=3)
    # structural checks only: the regime map is a report, not an assertion
    assert set(profile) == {-6, -8, -9, -10, -12, -14}
    for tally in profile.values():
        assert sum(tally.values()) == 60
    # far below tolerance the nudge is invisible; far above it, it is not
    assert profile[-14].get("scalene", 0) == 0
    assert profile[-6].get("equilateral", 0) == 0


def test_check_report_merge_and_summary():
    a = verify.CheckReport()
    a.record("chaining", True)
    b = verify.CheckReport()
    b.record("chaining", False, run_seed=7, round_index=3, detail="boom")
    b.observed_arcs.add((Phase.GENERAL_CLEAN, Phase.GATHERED))
    a.merge(b)
    assert a.properties["chaining"].checks == 2
    assert a.properties["chaining"].violations == 1
    assert not a.ok
    text = a.summary()
    assert "chaining" in text and "boom" in text
    assert "outside the expected reachability graph" in text


def _hintless_view(view):
    """``frames.view`` with the SEC hint of each exact view dropped, so every
    robot's ``sec`` runs Welzl on all its towers."""

    def stripped(f, g):
        v = view(f, g)
        v.towers.hint = None
        return v

    return stripped


@pytest.mark.parametrize("kind", ["round_robin", "all_active", "random_kfair"])
def test_check_reports_the_same_with_every_view_hint_stripped(monkeypatch, kind):
    runs = SecRuns(monkeypatch)
    counts = [0, 0]
    for run_seed in range(6):
        spec, trace, _rep = verify.run_one(run_seed, EXACT, ng_range=(32, 64), strategy_kinds=(kind,))
        reports = []
        for hinted in (True, False):
            runs.clear()
            with monkeypatch.context() as m:
                if not hinted:
                    m.setattr(frames, "view", _hintless_view(frames.view))
                reports.append(verify.check_trace(trace, EXACT, spec.k, run_seed))
            counts[hinted] += runs.full
        assert reports[0] == reports[1]
    # the hints were used: the stripped checks ran Welzl on more full sets
    assert counts[True] < counts[False]


# --- equivalence / morphism helpers ---------------------------------------------


def test_check_equivalence_inactive():
    conf = (P(0, 0), P(1, 1), P(2, 2))
    da = DemonicAction((None, None, None))
    assert local_round_matches_global(conf, da, EXACT)


def test_check_equivalence_random_frames():
    rng = random.Random(3)
    strat = verify.Strategy("random_kfair", 5, EXACT, seed=4)
    conf = verify.gen_initial(5, rng, EXACT)
    for i in range(10):
        da = strat(i, conf)
        assert local_round_matches_global(conf, da, EXACT)


# --- fuzz ---------------------------------------------------------------------------


def test_fuzz_reproducible():
    rep1, _ = verify.fuzz(10, EXACT, seed=99)
    rep2, _ = verify.fuzz(10, EXACT, seed=99)
    assert rep1.summary() == rep2.summary()
    assert rep1.rounds_to_gather == rep2.rounds_to_gather


def test_fuzz_different_seeds_differ():
    rep1, _ = verify.fuzz(10, EXACT, seed=1)
    rep2, _ = verify.fuzz(10, EXACT, seed=2)
    assert rep1.rounds_to_gather != rep2.rounds_to_gather


def test_fuzz_gathered_start():
    # pool of one: gathered at round 0
    spec, trace, rep = verify.run_one(12345, EXACT)
    assert rep.ok or rep.failures  # structural: report always well-formed
    rep, cex = verify.fuzz(5, EXACT, seed=0)
    assert rep.runs == 5
    assert rep.ok
    assert cex == []


def test_fuzz_unfair_demon_flagged():
    # start where only robot 0 is off the majority tower: without robot 0
    # the execution can never gather
    conf = (P(5, 5), P(0, 0), P(0, 0), P(0, 0))
    strat = verify.Strategy("unfair_skip0", 4, EXACT, seed=0)
    horizon = verify.horizon_for(strat.k, 4)
    trace = model.execute(local_step(EXACT), strat, conf, horizon)
    rep = verify.check_trace(trace, EXACT, declared_k=strat.k)
    assert rep.violations_of("k_fairness") > 0
    assert first_gathered_round(trace, EXACT) is None
    assert gather2d.gathering_point(trace.configs()[-1], EXACT) is None


def _verdicts(rep):
    props = {p: (st.checks, st.violations) for p, st in rep.properties.items() if p != "gathering"}
    return props, rep.observed_arcs


def _local_replay(spec, backend):
    """Execute a fuzz run's spec on the local-frame model.round instead of
    round_global: same strategy seed, start, horizon and stop rule."""
    strat = verify.Strategy(spec.strategy_kind, spec.n_robots, backend, seed=spec.strategy_seed)
    return model.execute(
        local_step(backend),
        strat,
        spec.initial,
        spec.horizon + spec.k,
        stop=gathered_stable_stop(backend, spec.k),
    )


@pytest.mark.parametrize("kind", verify.FUZZ_KINDS)
@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_fuzz_run_equals_its_local_frame_replay(backend, kind):
    # a fuzz run executes on round_global; replaying its spec through the
    # local-frame model.round gives the same configurations and verdicts
    for run_seed in (6, 20, 38, 44):  # every run moves a robot on both backends
        spec, trace, rep = verify.run_one(run_seed, backend, strategy_kinds=(kind,))
        assert spec.strategy_kind == kind
        replay = _local_replay(spec, backend)
        assert len(replay.steps) == len(trace.steps), run_seed
        for got, want in zip(replay.configs(), trace.configs()):
            if backend.is_exact:
                assert got == want, run_seed
            else:
                assert verify._configs_eq(got, want, backend), run_seed
        assert [st.action for st in replay.steps] == [st.action for st in trace.steps]
        replay_rep = verify.check_trace(replay, backend, declared_k=spec.k, run_seed=run_seed)
        assert _verdicts(replay_rep) == _verdicts(rep), run_seed
        assert [first_gathered_round(replay, backend)] == rep.rounds_to_gather, run_seed



@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_check_trace_given_the_run_summaries_matches_resummarizing(backend, monkeypatch):
    # run_one hands check_trace the summaries its demon and executed rounds
    # used; grading with them or re-summarizing gives the same verdicts
    check_trace = verify.check_trace
    handed = []

    def spy(trace, b, *args, **kwargs):
        handed.append(kwargs.get("summaries"))
        return check_trace(trace, b, *args, **kwargs)

    monkeypatch.setattr(verify, "check_trace", spy)
    master = random.Random(11)
    for _ in range(100):
        run_seed = master.randrange(2**62)
        spec, trace, rep = verify.run_one(run_seed, backend)
        summaries = handed.pop()
        assert summaries == [gather2d.summarize(c, backend) for c in trace.configs()], run_seed
        given = check_trace(trace, backend, spec.k, run_seed, summaries=summaries)
        again = check_trace(trace, backend, spec.k, run_seed)
        assert _verdicts(given) == _verdicts(again) == _verdicts(rep), run_seed
        assert given.failures == again.failures, run_seed


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_check_trace_ignores_a_summary_list_that_does_not_match(backend):
    # a given summary is used only for the configuration it records, so a
    # list that is shifted, short, long, reversed, another run's or another
    # backend's grades every round as no list does: the same report, failures
    # included. Read by position, a shifted list would make measure_decrease
    # compare the wrong measures
    runs = [executed_run(run_seed, backend) for run_seed in range(50)]
    for run_seed, (spec, trace, summaries) in enumerate(runs):
        want = verify.check_trace(trace, backend, spec.k, run_seed)
        assert verify.check_trace(trace, backend, spec.k, run_seed, summaries=summaries) == want, run_seed
        for name, wrong in misaligned_summaries(trace, summaries, runs[run_seed - 1][2], backend).items():
            assert verify.check_trace(trace, backend, spec.k, run_seed, summaries=wrong) == want, (run_seed, name)


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_teleport_is_flagged_when_summaries_are_given(backend):
    spec, trace, _rep = verify.run_one(6, backend)
    assert len(trace.steps) >= 2
    step = trace.steps[1]
    teleported = (backend.point(50, 50),) + step.config[1:]
    trace.steps[1] = TraceStep(step.index, step.action, teleported)
    summaries = [gather2d.summarize(c, backend) for c in trace.configs()]
    given = verify.check_trace(trace, backend, spec.k, 6, summaries=summaries)
    assert given.violations_of("chaining") > 0
    again = verify.check_trace(trace, backend, spec.k, 6)
    assert _verdicts(given) == _verdicts(again)
    assert given.failures == again.failures


def test_fuzz_summarizes_each_configuration_once(monkeypatch):
    # one summary per distinct configuration, shared by the demon, the
    # executed round and the checker; a round that moves no robot keeps the
    # same Point objects and reuses the summary before it. The local
    # model.round, run once per round by the checker, builds its own spectrum
    calls = Counter()
    configs = distinct = rounds = 0

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((gather2d, "summarize"), (model, "spectrum_of"), (model, "round")):
        count(module, name)
    gen_initial, check_trace = verify.gen_initial, verify.check_trace

    def counted_gen_initial(*args, **kwargs):
        before = calls["spectrum_of"]
        try:
            return gen_initial(*args, **kwargs)
        finally:
            calls["bivalence_draws"] += calls["spectrum_of"] - before

    def counted_check_trace(trace, *args, **kwargs):
        nonlocal configs, distinct, rounds
        configs += len(trace.steps) + 1
        distinct += distinct_configs(trace)
        rounds += len(trace.steps)
        return check_trace(trace, *args, **kwargs)

    monkeypatch.setattr(verify, "gen_initial", counted_gen_initial)
    monkeypatch.setattr(verify, "check_trace", counted_check_trace)
    rep, _ = verify.fuzz(100, EXACT, seed=0)
    assert rep.ok and rep.runs == 100 and rounds > 1000
    assert calls["summarize"] == distinct < configs
    assert calls["round"] == rounds
    assert calls["spectrum_of"] <= rounds + configs + calls["bivalence_draws"]


def test_robot_that_does_not_move_keeps_its_own_point(monkeypatch):
    # four separate objects: the robot activated at the highest tower stays
    # where it is, as its own Point, so that round is not summarized again
    conf = tuple(Point(F(x), F(y)) for x, y in ((0, 0), (0, 0), (5, 5), (1, 3)))
    calls = []
    summarize = gather2d.summarize
    monkeypatch.setattr(gather2d, "summarize", lambda *args: calls.append(1) or summarize(*args))
    strat = verify.Strategy("round_robin", 4, EXACT, seed=0)
    trace, summaries = verify.execute_global(strat, conf, EXACT, 20)
    configs = trace.configs()
    assert configs[1] == configs[0] and all(p is q for p, q in zip(configs[1], configs[0]))
    assert len(configs) == 5 and len(calls) == distinct_configs(trace) == 3
    assert summaries[1] is summaries[0]


def test_float_local_execution_passes_the_checker():
    # fuzz executes on round_global, so frame round-off of the float local
    # model no longer carries from round to round there: run it here, over
    # many rounds of a few hundred fuzz specs, and grade it
    master = random.Random(7)
    rounds = 0
    for _ in range(300):
        run_seed = master.randrange(2**62)
        spec, _trace, _rep = verify.run_one(run_seed, FLOAT64)
        replay = _local_replay(spec, FLOAT64)
        rep = verify.check_trace(replay, FLOAT64, declared_k=spec.k, run_seed=run_seed)
        assert rep.ok, (run_seed, rep.summary())
        gathered = first_gathered_round(replay, FLOAT64)
        assert gathered is not None and gathered <= spec.horizon, run_seed
        rounds += len(replay.steps)
    assert rounds > 3000


# --- horizon bound -------------------------------------------------------------------


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_horizon_bound_holds_empirically(backend):
    # run with triple the budget and confirm gathering happens within the
    # derived bound k*7*(nG+1) regardless
    master = random.Random(777)
    for _ in range(40):
        run_seed = master.randrange(2**62)
        rng = random.Random(run_seed)
        n = rng.randint(3, 7)
        kind = rng.choice(["round_robin", "random_kfair", "single_mover"])
        strat = verify.Strategy(kind, n, backend, seed=rng.randrange(2**62))
        conf = verify.gen_initial(n, rng, backend)
        bound = verify.horizon_for(strat.k, n)
        trace = model.execute(
            local_step(backend),
            strat,
            conf,
            3 * bound,
            stop=lambda c: gather2d.gathering_point(c, backend) is not None,
        )
        gathered_round = first_gathered_round(trace, backend)
        assert gathered_round is not None, f"seed {run_seed} never gathered"
        assert gathered_round <= bound, f"seed {run_seed}: {gathered_round} > {bound}"
