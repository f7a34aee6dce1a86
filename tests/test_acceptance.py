"""Acceptance suite: every criterion at its stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The fuzz-based criteria share one 1,000-run corpus (600 floating,
400 exact) built once per session.
"""
import dataclasses
import hashlib
import math
import random
import re
import time
from fractions import Fraction as F

import pytest

from conftest import closed_form_frame, executed_run, first_gathered_round, local_step
from robogather import cli, frames, gather2d, geometry, model, verify
from robogather.gather2d import AUDITED_ARCS, EXPECTED_ARCS
from robogather.geometry import TriangleKind
from robogather.model import DemonicAction, FrameParams
from robogather.scalars import EXACT, FLOAT64, Point

P = EXACT.point


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


def _rational_point(rng):
    return Point(
        F(rng.randint(-30, 30), rng.randint(1, 4)),
        F(rng.randint(-30, 30), rng.randint(1, 4)),
    )


def _rational_rotation(rng):
    t = F(rng.randint(-6, 6), rng.randint(1, 6))
    den = 1 + t * t
    return (1 - t * t) / den, (2 * t) / den


def _exact_frame(rng):
    zoom = F(rng.randint(1, 10), rng.randint(1, 10))
    c, s = _rational_rotation(rng)
    return FrameParams(zoom, c, s, rng.random() < 0.5)


def _float_frame(rng):
    zoom = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return FrameParams(zoom, math.cos(theta), math.sin(theta), rng.random() < 0.5)


# --- criterion: SEC oracle equivalence ----------------------------------------


def test_sec_oracle_equivalence_10k_sets():
    rng = random.Random(1492)
    n_sets = 10_000
    t0 = time.time()
    for _ in range(n_sets):
        size = rng.randint(0, 12)
        pts = [_rational_point(rng) for _ in range(size)]
        if pts and rng.random() < 0.3:  # duplicates must not matter
            pts.append(rng.choice(pts))
        exact_fast = geometry.sec(pts, EXACT)[0]
        exact_brute = geometry.sec_bruteforce(pts, EXACT)
        assert exact_fast == exact_brute, (pts, exact_fast, exact_brute)

        fpts = [Point(float(p.x), float(p.y)) for p in pts]
        f_fast = geometry.sec(fpts, FLOAT64)[0]
        f_brute = geometry.sec_bruteforce(fpts, FLOAT64)
        fast_bits = [v.hex() for v in (*f_fast.center, f_fast.radius_sq)]
        assert fast_bits == [v.hex() for v in (*f_brute.center, f_brute.radius_sq)], (fpts, f_fast, f_brute)
        # and the float result tracks the exact one
        assert abs(f_fast.center.x - float(exact_fast.center.x)) <= 1e-9
        assert abs(f_fast.center.y - float(exact_fast.center.y)) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"SEC criterion took {elapsed:.1f}s (budget 60s)"
    _report("sec oracle equivalence", f"{n_sets} sets, {elapsed:.1f}s")


# --- criterion: round_simplify equivalence -------------------------------------


def _random_configuration(rng, backend, n):
    if rng.random() < 0.5:
        return verify.gen_initial(n, rng, backend)
    pool_n = rng.randint(1, 5)
    if backend.is_exact:
        pool = [_rational_point(rng) for _ in range(pool_n)]
    else:
        pool = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(pool_n)]
    return tuple(rng.choice(pool) for _ in range(n))


def test_round_simplify_equivalence_5k_pairs():
    n_pairs_each = 2_500
    rng = random.Random(2024)
    r_exact = gather2d.robogram(EXACT)
    for _ in range(n_pairs_each):
        n = rng.randint(3, 10)
        conf = _random_configuration(rng, EXACT, n)
        steps = tuple(_exact_frame(rng) if rng.random() < 0.75 else None for _ in range(n))
        da = DemonicAction(steps)
        local = model.round(r_exact, da, conf, EXACT)
        glob = gather2d.round_global(da.activated(), conf, EXACT)
        assert local == glob, (conf, da)

    r_float = gather2d.robogram(FLOAT64)
    worst = 0.0
    for _ in range(n_pairs_each):
        n = rng.randint(3, 10)
        conf = _random_configuration(rng, FLOAT64, n)
        steps = tuple(_float_frame(rng) if rng.random() < 0.75 else None for _ in range(n))
        da = DemonicAction(steps)
        local = model.round(r_float, da, conf, FLOAT64)
        glob = gather2d.round_global(da.activated(), conf, FLOAT64)
        for p, q in zip(local, glob):
            worst = max(worst, abs(p.x - q.x), abs(p.y - q.y))
            assert abs(p.x - q.x) <= 1e-9 and abs(p.y - q.y) <= 1e-9, (conf, da)
    _report(
        "round_simplify equivalence",
        f"{2 * n_pairs_each} pairs, worst float deviation {worst:.2e}",
    )


# --- the shared fuzz corpus ------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_corpus():
    report = verify.CheckReport()
    rep_f, cex_f = verify.fuzz(600, FLOAT64, seed=60601)
    rep_e, cex_e = verify.fuzz(400, EXACT, seed=60602)
    report.merge(rep_f)
    report.merge(rep_e)
    return report, cex_f + cex_e


def test_same_destination_over_corpus(fuzz_corpus):
    report, _ = fuzz_corpus
    assert report.runs >= 1000
    stats = report.properties["same_destination"]
    assert stats.violations == 0, report.summary()
    _report("same_destination", f"{stats.checks} moving rounds, 0 violations")


def test_never_forbidden_over_corpus(fuzz_corpus):
    report, _ = fuzz_corpus
    stats = report.properties["never_forbidden"]
    assert stats.violations == 0, report.summary()
    _report("never_forbidden", f"{stats.checks} rounds, 0 violations")


def test_measure_decrease_over_corpus(fuzz_corpus):
    report, _ = fuzz_corpus
    stats = report.properties["measure_decrease"]
    assert stats.violations == 0, report.summary()
    _report("measure_decrease", f"{stats.checks} moving rounds, 0 violations")


def test_eventual_gathering_over_corpus(fuzz_corpus):
    report, _ = fuzz_corpus
    assert report.timeouts == 0, report.summary()
    assert report.properties["gathering"].violations == 0
    assert report.properties["gather_persistence"].violations == 0
    rtg = report.rounds_to_gather
    _report(
        "eventual gathering",
        f"{report.runs} runs, 0 timeouts, gather rounds max {max(rtg)}",
    )


def test_horizon_bound_validated_before_reliance():
    # empirical validation of the derived budget: give three times the
    # budget, require gathering within one budget
    master = random.Random(31415)
    checked = 0
    for backend in (EXACT, FLOAT64):
        for _ in range(30):
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
            got = first_gathered_round(trace, backend)
            assert got is not None and got <= bound, (run_seed, got, bound)
            checked += 1
    _report("horizon bound empirical validation", f"{checked} unbounded runs within k*7*(nG+1)")


def test_phase_transition_conformance(fuzz_corpus):
    report, _ = fuzz_corpus
    stats = report.properties["phase_transition"]
    assert stats.violations == 0, report.summary()
    allowed = set(EXPECTED_ARCS) | set(AUDITED_ARCS)
    outside = report.observed_arcs - allowed
    assert not outside, f"arcs outside expected+audited: {outside}"
    audited_seen = sorted(
        f"{a.value}->{b.value}" for a, b in report.outside_expected_arcs()
    )
    never_seen = sorted(f"{a.value}->{b.value}" for a, b in report.unobserved_arcs())
    for arc in audited_seen:
        print(f"  audit: outside expected arc set (allowed as audited): {arc}")
    for arc in never_seen:
        print(f"  audit: expected arc never observed in corpus: {arc}")
    _report(
        "phase transition conformance",
        f"{len(report.observed_arcs)} distinct arcs, {len(never_seen)} unobserved",
    )


# --- criterion: target_morph ------------------------------------------------------


def test_target_morph_5k_pairs():
    rng = random.Random(777)
    n_pairs = 5_000
    for _ in range(n_pairs):
        support_size = rng.randint(1, 8)
        counts = {}
        while len(counts) < support_size:
            counts[_rational_point(rng)] = rng.randint(1, 3)
        s = model.spectrum_of(tuple(p for p, m in counts.items() for _ in range(m)), EXACT)
        zoom = F(rng.randint(1, 10), rng.randint(1, 10))
        c, sn = _rational_rotation(rng)
        reflect = rng.random() < 0.5
        # built as production builds frames, so the integer form is exercised
        f = frames.make_frame(_rational_point(rng), FrameParams(zoom, c, sn, reflect), EXACT)
        lhs = gather2d._analyze(frames.view(f, s).towers, EXACT).tgt
        rhs = frames.apply(f, gather2d.target(s, EXACT))
        assert lhs == rhs, (s, f)
    _report("target_morph equivariance", f"{n_pairs} exact pairs")


# --- criterion: negative controls ---------------------------------------------------


def test_negative_control_corrupted_trace():
    rng = random.Random(5)
    conf = verify.gen_initial(5, rng, EXACT)
    strat = verify.Strategy("round_robin", 5, EXACT, seed=8)
    trace = model.execute(local_step(EXACT), strat, conf, 6)
    assert trace.steps, "fixture must execute at least one round"
    step = trace.steps[0]
    trace.steps[0] = model.TraceStep(
        step.index,
        step.action,
        tuple(P(99, 99) if i == 0 else p for i, p in enumerate(step.config)),
    )
    rep = verify.check_trace(trace, EXACT, declared_k=strat.k)
    assert not rep.ok
    assert rep.violations_of("chaining") > 0
    _report("negative control: corrupted trace fails chaining")


def test_negative_control_unfair_demon():
    # only robot 0 is off the majority tower; a demon that never activates
    # robot 0 cannot gather, and its stream fails the fairness check
    conf = (P(9, 9), P(0, 0), P(0, 0), P(0, 0))
    strat = verify.Strategy("unfair_skip0", 4, EXACT, seed=0)
    horizon = verify.horizon_for(strat.k, 4)
    trace = model.execute(local_step(EXACT), strat, conf, horizon)
    rep = verify.check_trace(trace, EXACT, declared_k=strat.k)
    assert rep.violations_of("k_fairness") > 0
    assert first_gathered_round(trace, EXACT) is None
    _report("negative control: unfair demon flagged and never gathers")


def _pgm_returns_origin(s, backend):
    return backend.origin()


def _round_global_stays(activated, conf, backend, summary=None):
    return conf


@pytest.mark.parametrize(
    "name, broken",
    [("pgm", _pgm_returns_origin), ("round_global", _round_global_stays)],
    ids=["pgm-returns-origin", "round-global-stays"],
)
def test_negative_control_fuzz_exercises_the_local_round(monkeypatch, name, broken):
    # a fuzz run executes on round_global and checks against model.round:
    # breaking either one must show up as chaining violations
    monkeypatch.setattr(gather2d, name, broken)
    rep, cex = verify.fuzz(50, EXACT)
    assert rep.violations_of("chaining") > 0, rep.summary()
    assert cex
    _report(f"negative control: broken {name} fails chaining", f"{rep.violations_of('chaining')} violations")


def _view_ignoring_reflect(f, g, _real=frames.view):
    fp = f.fp
    return _real(frames.make_frame(f.center, FrameParams(fp.zoom, fp.c, fp.s, False), EXACT), g)


def test_negative_control_view_ignoring_reflect(monkeypatch):
    # a mirrored robot sees the other towers through the unmirrored frame but
    # maps its destination back through the mirrored one: its move is wrong
    monkeypatch.setattr(frames, "view", _view_ignoring_reflect)
    rep, cex = verify.fuzz(20, EXACT)
    assert rep.violations_of("chaining") > 0, rep.summary()
    assert cex
    _report("negative control: view ignoring reflect fails chaining", f"{rep.violations_of('chaining')} violations")


def _executed_with_a_stale_summary(backend):
    """A fuzz run as an executor would record it had it used, in one round,
    the summary of the configuration before: the trace follows that round,
    and its summaries hold the stale one in the round's place (its
    neighbour's entry)."""
    for run_seed in range(100):
        _spec, trace, summaries = executed_run(run_seed, backend)
        configs = trace.configs()
        for j in range(1, len(trace.steps)):
            stale, action = summaries[j - 1], trace.steps[j].action
            wrong = gather2d.round_global(action.activated(), configs[j], backend, stale)
            if stale.conf != configs[j] and wrong != configs[j + 1]:
                steps = trace.steps[:j] + [model.TraceStep(j, action, wrong)]
                return model.Trace(trace.initial, steps), summaries[:j] + [stale, gather2d.summarize(wrong, backend)]
    raise AssertionError("no run has a round that a stale summary changes")


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
def test_negative_control_stale_summary_still_fails_chaining(backend):
    # check_trace uses a given summary only for the configuration it records;
    # a stale one must not let the local round repeat the executor's wrong
    # round, nor change any other verdict
    trace, summaries = _executed_with_a_stale_summary(backend)
    rep = verify.check_trace(trace, backend, summaries=summaries)
    assert rep.violations_of("chaining") > 0, rep.summary()
    assert rep == verify.check_trace(trace, backend)
    _report(f"negative control: stale summary fails chaining ({backend.name})", f"{rep.violations_of('chaining')} violations")


def _target_to_barycenter(kind, _real=gather2d.target_triangle):
    """``target_triangle`` with the target of a ``kind`` triangle moved to its
    barycenter."""

    def mutant(p1, p2, p3, backend):
        tgt, shape = _real(p1, p2, p3, backend)
        return (geometry.barycenter_3(p1, p2, p3) if shape is kind else tgt), shape

    return mutant


def _clean_always(clean, _real=gather2d._analyze):
    """``_analyze`` with its clean flag fixed to ``clean``."""

    def mutant(towers, backend):
        return dataclasses.replace(_real(towers, backend), clean=clean)

    return mutant


def _weights_swapped(a, b):
    """``PHASE_WEIGHT`` with the weights of phases ``a`` and ``b`` swapped."""
    weights = dict(gather2d.PHASE_WEIGHT)
    weights[a], weights[b] = weights[b], weights[a]
    return weights


# Mutants of protocol code that the local and the global round share, so
# chaining cannot see them. Each comes with the properties that must catch
# it and the length of a seed-0 exact fuzz that does (its first failing run
# is the 105th, 17th, 44th, 17th and 23rd).
_PROTOCOL_MUTANTS = {
    "isosceles-target-barycenter": (
        "target_triangle", _target_to_barycenter(TriangleKind.ISOSCELES), 150, ("phase_transition",)
    ),
    "scalene-target-barycenter": (
        "target_triangle", _target_to_barycenter(TriangleKind.SCALENE), 150, ("phase_transition",)
    ),
    "clean-always-true": ("_analyze", _clean_always(True), 150, ("measure_decrease", "phase_transition")),
    "clean-always-false": ("_analyze", _clean_always(False), 30, ("gathering",)),
    "phase-weights-diameter-swapped": (
        "PHASE_WEIGHT",
        _weights_swapped(gather2d.Phase.DIAMETER_CLEAN, gather2d.Phase.DIAMETER_DIRTY),
        60,
        ("measure_decrease",),
    ),
}


@pytest.mark.parametrize("name", list(_PROTOCOL_MUTANTS))
def test_negative_control_protocol_mutant(monkeypatch, name):
    attr, mutant, runs, killers = _PROTOCOL_MUTANTS[name]
    monkeypatch.setattr(gather2d, attr, mutant)
    rep, cex = verify.fuzz(runs, EXACT)
    assert rep.violations_of("chaining") == 0, rep.summary()
    caught = {prop: rep.violations_of(prop) for prop in killers if rep.violations_of(prop)}
    assert caught and cex, rep.summary()
    _report(f"negative control: protocol mutant {name} is caught", str(caught))


# The report of a small seed-0 fuzz of each protocol mutant (its runs as
# above) and of the unfair demon (5 runs) on each backend: per property of
# PROPERTIES (checks, violations), the number of failures kept and a sha256
# prefix of their (prop, run_seed, round_index, detail).
_FAILING_REPORTS = {
    ("isosceles-target-barycenter", "exact"): (((1782, 0), (1782, 0), (238, 0), (1782, 0), (238, 0), (1782, 1), (1029, 0), (150, 0), (150, 0)), 1, "0968442bf7d25f64"),
    ("isosceles-target-barycenter", "floating"): (((1735, 0), (1735, 0), (235, 0), (1735, 0), (235, 0), (1735, 0), (1029, 0), (150, 0), (150, 0)), 0, "4f53cda18c2baa0c"),
    ("scalene-target-barycenter", "exact"): (((1781, 0), (1781, 0), (245, 0), (1781, 0), (245, 0), (1781, 1), (1029, 0), (150, 0), (150, 0)), 1, "e619ace95cc43347"),
    ("scalene-target-barycenter", "floating"): (((1749, 0), (1749, 0), (238, 0), (1749, 0), (238, 1), (1749, 1), (1029, 0), (150, 0), (150, 0)), 2, "89b953e98f8a2af9"),
    ("clean-always-true", "exact"): (((1683, 0), (1683, 0), (215, 0), (1683, 0), (215, 5), (1683, 2), (1029, 0), (150, 0), (150, 0)), 7, "2056461ebdb556c9"),
    ("clean-always-true", "floating"): (((1650, 0), (1650, 0), (226, 0), (1650, 0), (226, 16), (1650, 4), (1029, 0), (150, 0), (150, 0)), 20, "e463be6f3a97edb9"),
    ("clean-always-false", "exact"): (((1459, 0), (1459, 0), (38, 0), (1459, 0), (38, 0), (1459, 0), (175, 0), (30, 0), (30, 3)), 3, "b082f93ddab65acc"),
    ("clean-always-false", "floating"): (((3296, 0), (3296, 0), (31, 0), (3296, 0), (31, 0), (3296, 0), (138, 0), (30, 0), (30, 9)), 9, "03be2aaad14932dc"),
    ("phase-weights-diameter-swapped", "exact"): (((674, 0), (674, 0), (97, 0), (674, 0), (97, 3), (674, 0), (380, 0), (60, 0), (60, 0)), 3, "4a182c5cf914662b"),
    ("phase-weights-diameter-swapped", "floating"): (((663, 0), (663, 0), (98, 0), (663, 0), (98, 9), (663, 0), (380, 0), (60, 0), (60, 0)), 9, "13a4c45221f021a2"),
    ("unfair_skip0", "exact"): (((1017, 0), (1017, 0), (17, 0), (1017, 0), (17, 0), (1017, 0), (11, 0), (5, 5), (5, 3)), 8, "2fe59e70054859d1"),
    ("unfair_skip0", "floating"): (((867, 0), (867, 0), (17, 0), (867, 0), (17, 0), (867, 0), (13, 0), (5, 5), (5, 3)), 8, "32480f79e6f82b17"),
}


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "floating"])
@pytest.mark.parametrize("name", [*_PROTOCOL_MUTANTS, "unfair_skip0"])
def test_failing_runs_report_is_pinned(monkeypatch, name, backend):
    # check_trace builds a violation's text and configurations only when a
    # check fails: each must still be the failing round's own, and every
    # counter the same
    if name in _PROTOCOL_MUTANTS:
        attr, mutant, runs, _ = _PROTOCOL_MUTANTS[name]
        monkeypatch.setattr(gather2d, attr, mutant)
        kinds = verify.FUZZ_KINDS
    else:
        runs, kinds = 5, (name,)
    rep, _ = verify.fuzz(runs, backend, strategy_kinds=kinds)
    counts, kept, digest = _FAILING_REPORTS[name, backend.name]
    got = {prop: (s.checks, s.violations) for prop, s in rep.properties.items()}
    assert got == dict(zip(verify.PROPERTIES, counts))
    failures = [(f.prop, f.run_seed, f.round_index, f.detail) for f in rep.failures]
    assert len(failures) == kept, failures
    assert hashlib.sha256(repr(failures).encode()).hexdigest()[:16] == digest, failures
    for f in rep.failures:
        if f.round_index is None:
            assert f.before is None and f.after is None
            continue
        configs = verify.run_one(f.run_seed, backend, strategy_kinds=kinds)[1].configs()
        assert f.before == configs[f.round_index] and f.after == configs[f.round_index + 1], f


def _tie_goes_to_the_first_tower(s):
    """The majority rule with a tie for highest counted as unique: the first
    of the highest towers wins."""
    return s.mults.index(max(s.mults)) if s.mults else None


def _lt_measure_non_strict(a, b):
    return a.weight < b.weight or (a.weight == b.weight and a.residual <= b.residual)


def _tie_is_decided_by_the_order_of_the_view():
    """The destination of a view with a tie for highest must not depend on
    the order of its towers (a robot sees a multiset)."""
    r = gather2d.robogram(EXACT)
    tie = (P(0, 0), P(0, 0), P(2, 0), P(2, 0), P(1, 3))
    reordered = tie[2:4] + tie[:2] + tie[4:]
    return r(model.spectrum_of(tie, EXACT)) != r(model.spectrum_of(reordered, EXACT))


def _a_move_that_keeps_the_measure_passes():
    """Does ``check_trace`` accept a round that moves a robot and leaves the
    measure where it was? A majority configuration's straggler steps
    sideways: (0, 1) before and after."""
    before, after = (P(0, 0), P(0, 0), P(2, 0)), (P(0, 0), P(0, 0), P(3, 0))
    fp = FrameParams(F(1), F(1), F(0), False)
    trace = model.Trace(before, [model.TraceStep(0, DemonicAction((None, None, fp)), after)])
    return verify.check_trace(trace, EXACT).violations_of("measure_decrease") == 0


# Mutants a fuzz campaign cannot see, each with a check of its own that
# kills it, as a predicate that holds where that check fails. Every view of a round keeps the spectrum's tower order, so a majority rule
# that breaks a tie by that order moves every robot, in the local and the
# global round alike, to one tower, which is then the unique highest: the
# execution gathers and every property holds. And a correct protocol always
# lowers the measure strictly, so a measure order that also accepts equal
# measures is never asked about a pair it gets wrong.
_FUZZ_BLIND_MUTANTS = {
    "majority-tie-first-tower": ("highest_tower", _tie_goes_to_the_first_tower, _tie_is_decided_by_the_order_of_the_view),
    "lt-measure-non-strict": ("lt_measure", _lt_measure_non_strict, _a_move_that_keeps_the_measure_passes),
}


@pytest.mark.parametrize("name", list(_FUZZ_BLIND_MUTANTS))
def test_negative_control_mutant_that_fuzz_misses_is_killed_by_its_own_check(monkeypatch, name):
    attr, mutant, check_fails = _FUZZ_BLIND_MUTANTS[name]
    assert not check_fails()
    monkeypatch.setattr(gather2d, attr, mutant)
    rep, cex = verify.fuzz(300, EXACT)
    assert rep.ok and not cex, rep.summary()
    assert check_fails()
    _report(f"negative control: fuzz-blind mutant {name} is caught by its own check")


class _KeyedWithoutReflect(list):
    """The exact demon's support table with the reflect bit (the lowest bit
    of the draw index) dropped from its key."""

    def __getitem__(self, key):
        return super().__getitem__(key & ~1)

    def __setitem__(self, key, fp):
        super().__setitem__(key & ~1, fp)


def test_negative_control_frame_table_keyed_without_reflect(monkeypatch):
    # a mirrored draw gets the unmirrored frame. That frame is as valid as
    # the one drawn, so the local round still equals the global one and
    # chaining cannot see it; the draw check against the closed-form
    # distribution does
    table = _KeyedWithoutReflect([None] * len(verify._EXACT_FRAMES))
    monkeypatch.setattr(verify, "_EXACT_FRAMES", table)
    rep, _ = verify.fuzz(20, EXACT)
    assert rep.violations_of("chaining") == 0, rep.summary()
    mismatches = 0
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        mismatches += verify.DEFAULT_POLICY.sample(rng, EXACT) != closed_form_frame(ref)
    assert mismatches > 0
    _report("negative control: frame table keyed without reflect fails the draw check", f"{mismatches}/200 draws")


def _replay_counterexample_through_the_cli(monkeypatch, tmp_path, capsys, name, broken):
    """With ``gather2d.<name>`` broken: find a fuzz counterexample, replay its
    scenario with ``run``, and return the exit codes of ``run`` and of
    ``check`` on the written trace, with ``check``'s output."""
    monkeypatch.setattr(gather2d, name, broken)
    cex_dir = tmp_path / "cex"
    assert cli.main(["fuzz", "--runs", "20", "--seed", "0", "--out", str(cex_dir)]) == cli.EXIT_VIOLATION
    scenario = str(cex_dir / "counterexample_0_scenario.json")
    trace = str(tmp_path / "replay.jsonl")
    rc_run = cli.main(["run", "--scenario", scenario, "--out", trace])
    capsys.readouterr()
    rc_check = cli.main(["check", "--trace", trace])
    return rc_run, rc_check, capsys.readouterr().out


def test_negative_control_counterexample_replays_through_the_cli(monkeypatch, tmp_path, capsys):
    # run executes the broken global round, so every robot stays and the
    # horizon runs out; check replays the local round, which moves robots:
    # chaining fails, while round_simplify agrees with the broken round
    rc_run, rc_check, out = _replay_counterexample_through_the_cli(
        monkeypatch, tmp_path, capsys, "round_global", _round_global_stays
    )
    assert rc_run == cli.EXIT_HORIZON
    assert rc_check == cli.EXIT_VIOLATION
    assert re.search(r"^chaining: \d+/\d+ FAIL$", out, re.M), out
    assert re.search(r"^round_simplify: (\d+)/\1 ok$", out, re.M), out
    _report("negative control: counterexample replays with run then check")


def test_negative_control_broken_pgm_replays_through_the_cli(monkeypatch, tmp_path, capsys):
    # run executes the global round, which never calls pgm, and gathers;
    # check replays the local round, whose robots all stay: chaining fails
    rc_run, rc_check, out = _replay_counterexample_through_the_cli(
        monkeypatch, tmp_path, capsys, "pgm", _pgm_returns_origin
    )
    assert rc_run == cli.EXIT_OK
    assert rc_check == cli.EXIT_VIOLATION
    assert re.search(r"^chaining: \d+/\d+ FAIL$", out, re.M), out
    assert re.search(r"^round_simplify: (\d+)/\1 ok$", out, re.M), out
    _report("negative control: a broken pgm fails chaining on run then check")


# --- criterion: nG = 3 minimality ----------------------------------------------------


def test_minimal_robot_count_full_pass():
    rep = verify.CheckReport()
    for backend, seed in ((EXACT, 33), (FLOAT64, 34)):
        part, cex = verify.fuzz(150, backend, ng_range=(3, 3), seed=seed)
        assert cex == [], part.summary()
        rep.merge(part)
    assert rep.ok, rep.summary()
    assert rep.timeouts == 0

    rng = random.Random(303)
    r = gather2d.robogram(EXACT)
    for _ in range(300):
        conf = _random_configuration(rng, EXACT, 3)
        da = DemonicAction(tuple(_exact_frame(rng) if rng.random() < 0.8 else None for _ in range(3)))
        assert model.round(r, da, conf, EXACT) == gather2d.round_global(
            da.activated(), conf, EXACT
        )
    _report("nG=3 minimality", f"{rep.runs} fuzz runs + 300 equivalence pairs")
