import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from conftest import executed_run, local_step, misaligned_summaries
from robogather import cli, gather2d, model, traceio, verify
from robogather.scalars import EXACT, FLOAT64, FloatBackend, Point

P = EXACT.point


def _scenario_dict(**overrides):
    data = {
        "nG": 3,
        "backend": "exact",
        "initial": {"points": [["0", "0"], ["0", "0"], ["5", "5"]]},
        "demon": {"kind": "all_active", "seed": 1},
        "horizon": 20,
    }
    data.update(overrides)
    return data


def test_scenario_roundtrip(tmp_path):
    data = _scenario_dict()
    path = tmp_path / "s.json"
    traceio.save_scenario(data, str(path))
    assert traceio.load_scenario(str(path)) == data


def test_scenario_build_explicit_exact():
    backend, conf, strategy, horizon = traceio.read_scenario(_scenario_dict())
    assert backend is EXACT
    assert conf == (P(0, 0), P(0, 0), P(5, 5))
    assert strategy.kind == "all_active"
    assert horizon == 20


def test_scenario_build_generator():
    backend, conf, strategy, horizon = traceio.read_scenario(
        {
            "nG": 5,
            "backend": "floating",
            "initial": {"generator": {"bbox": 4, "seed": 11}},
            "demon": {"kind": "random_kfair", "seed": 2, "k": 6},
        }
    )
    assert backend.name == "floating"
    assert len(conf) == 5
    assert strategy.k == 6
    assert horizon == verify.horizon_for(6, 5)


def test_scenario_validation_errors():
    with pytest.raises(traceio.ScenarioError):
        traceio.read_scenario(_scenario_dict(nG=2))
    with pytest.raises(traceio.ScenarioError):
        traceio.read_scenario({"backend": "exact"})
    with pytest.raises(traceio.ScenarioError):
        traceio.read_scenario(_scenario_dict(backend="weird"))
    bad_points = _scenario_dict(initial={"points": [["0", "0"], ["1", "1"]]})
    with pytest.raises(traceio.ScenarioError):
        traceio.read_scenario(bad_points)
    bad_demon = _scenario_dict(demon={"kind": "nope"})
    with pytest.raises(traceio.ScenarioError):
        traceio.read_scenario(bad_demon)


def test_scenario_forbidden_needs_flag():
    data = _scenario_dict(
        nG=4,
        initial={"points": [["0", "0"], ["0", "0"], ["1", "1"], ["1", "1"]]},
    )
    with pytest.raises(traceio.ScenarioError):
        traceio.read_scenario(data)
    data["allow_forbidden"] = True
    backend, conf, _, _ = traceio.read_scenario(data)
    assert gather2d.forbidden(conf, backend)


def _make_trace(backend, seed=4, n=4, rounds=8, kind="random_kfair"):
    rng = random.Random(seed)
    conf = verify.gen_initial(n, rng, backend)
    strat = verify.Strategy(kind, n, backend, seed=seed)
    trace = model.execute(local_step(backend), strat, conf, rounds)
    return trace, strat


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_trace_roundtrip_bit_exact(tmp_path, backend):
    trace, strat = _make_trace(backend)
    path = str(tmp_path / "t.jsonl")
    traceio.write_trace(path, trace, backend, k=strat.k, strategy_kind=strat.kind, seed=4)
    loaded = traceio.read_trace(path)
    assert loaded.backend.name == backend.name
    assert loaded.k == strat.k
    assert loaded.trace.initial == trace.initial
    assert len(loaded.trace.steps) == len(trace.steps)
    for a, b in zip(loaded.trace.steps, trace.steps):
        assert a.index == b.index
        assert a.config == b.config  # bit-exact on both backends
        assert a.action == b.action


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_reloaded_trace_reproduces_report(tmp_path, backend):
    trace, strat = _make_trace(backend, seed=9)
    rep_orig = verify.check_trace(trace, backend, declared_k=strat.k)
    path = str(tmp_path / "t.jsonl")
    traceio.write_trace(path, trace, backend, k=strat.k, strategy_kind=strat.kind)
    loaded = traceio.read_trace(path)
    rep_again = verify.check_trace(loaded.trace, loaded.backend, declared_k=loaded.k)
    assert rep_again.summary() == rep_orig.summary()
    assert rep_again.ok == rep_orig.ok


def test_trace_annotations_match_recomputation(tmp_path):
    trace, strat = _make_trace(EXACT, seed=21)
    path = str(tmp_path / "t.jsonl")
    traceio.write_trace(path, trace, EXACT, k=strat.k)
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    rounds = [r for r in records if r["type"] == "round"]
    assert len(rounds) == len(trace.steps)
    for rec, step in zip(rounds, trace.steps):
        summary = gather2d.summarize(step.config, EXACT)
        assert rec["phase"] == summary.phase.value
        assert tuple(rec["measure"]) == tuple(summary.measure)
        assert rec["forbidden"] == summary.forbidden
        assert rec["gathered"] == (summary.gathered_pt is not None)


def test_read_trace_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(str(empty))

    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("not json\n")
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(str(garbled))

    no_header = tmp_path / "nohdr.jsonl"
    no_header.write_text(json.dumps({"type": "round"}) + "\n")
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(str(no_header))

    missing = tmp_path / "missing.jsonl"
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(str(missing))


def test_scenario_for_run_replays_identically(tmp_path):
    spec, trace, rep = verify.run_one(31337, EXACT)
    backend, conf, strategy, horizon = traceio.read_scenario(traceio.scenario_for_run(spec, EXACT))
    assert conf == spec.initial
    assert strategy.k == spec.k
    replay = model.execute(
        local_step(backend),
        strategy,
        conf,
        len(trace.steps),
    )
    for a, b in zip(replay.steps, trace.steps):
        assert a.action == b.action
        assert a.config == b.config


def test_float_scenario_for_run_keeps_the_run_tolerance(tmp_path):
    # a frozen float run replays at its own tolerance, not the default one,
    # also from its scenario file
    backend = FloatBackend(1e-6, 1e-6)
    spec, _trace, _rep = verify.run_one(7, backend)
    data = traceio.scenario_for_run(spec, backend)
    assert traceio.read_scenario(data)[0] == backend
    traceio.save_scenario(data, str(tmp_path / "s.json"))
    assert traceio.read_scenario(traceio.load_scenario(str(tmp_path / "s.json")))[0] == backend


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_write_trace_given_summaries_writes_the_same_bytes(tmp_path, backend):
    trace, strat = _make_trace(backend, seed=5)
    summaries = [gather2d.summarize(conf, backend) for conf in trace.configs()]
    given, made = tmp_path / "given.jsonl", tmp_path / "made.jsonl"
    traceio.write_trace(str(given), trace, backend, k=strat.k, summaries=summaries)
    traceio.write_trace(str(made), trace, backend, k=strat.k)
    assert given.read_bytes() == made.read_bytes()


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
def test_write_trace_ignores_a_summary_list_that_does_not_match(tmp_path, backend):
    # an entry that does not record its configuration is made again, so a
    # shifted, short, long, reversed, another run's or another backend's list
    # writes the bytes that no list writes
    runs = [executed_run(run_seed, backend) for run_seed in range(10)]
    path = tmp_path / "t.jsonl"
    for run_seed, (spec, trace, summaries) in enumerate(runs):
        traceio.write_trace(str(path), trace, backend, k=spec.k)
        want = path.read_bytes()
        for name, wrong in misaligned_summaries(trace, summaries, runs[run_seed - 1][2], backend).items():
            traceio.write_trace(str(path), trace, backend, k=spec.k, summaries=wrong)
            assert path.read_bytes() == want, (run_seed, name)


def test_read_trace_shares_the_point_of_a_repeated_exact_pair(tmp_path):
    # hash-consing: each distinct pair of "p/q" strings is parsed once; an
    # equal value written differently is a separate, equal object
    path = tmp_path / "t.jsonl"
    header = {"type": "header", "backend": "exact", "nG": 3, "k": None, "seed": None, "horizon": None}
    header["initial"] = [["1/2", "0"], ["1/2", "0"], ["2/4", "0"]]
    step = {"type": "round", "index": 0, "steps": [None, None, None]}
    step["locations"] = [["1/2", "0"], ["2/4", "0"], ["2/4", "0"]]
    path.write_text("".join(json.dumps(r) + "\n" for r in (header, step, {"type": "end"})))
    trace = traceio.read_trace(str(path)).trace
    (a, b, c), (d, e, f) = trace.initial, trace.steps[0].config
    assert a is b is d and c is e is f
    assert a == c == P(F(1, 2), 0) and a is not c


def _write_records(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_read_trace_shares_a_repeated_number_pair_and_keeps_signed_zeros_apart(tmp_path):
    # number pairs are keyed by their repr: 1 and 1.0 and 0.0 and -0.0 are
    # equal as dict keys but written apart, so each is its own object
    path = tmp_path / "t.jsonl"
    header = {"type": "header", "backend": "floating", "nG": 3, "k": None, "seed": None, "horizon": None}
    header["initial"] = [[1.5, 0.0], [1.5, 0.0], [1.5, -0.0]]
    step = {"type": "round", "index": 0, "steps": [None, None, None]}
    step["locations"] = [[1.5, 0.0], [1.5, -0.0], [1, 0.0]]
    _write_records(path, header, step, {"type": "end"})
    trace = traceio.read_trace(str(path)).trace
    (a, b, c), (d, e, f) = trace.initial, trace.steps[0].config
    assert a is b is d and c is e and a is not c
    assert str(a.y) == "0.0" and str(c.y) == "-0.0"
    assert f == Point(1.0, 0.0) and f is not a


def _frame(zoom="1/2", c="3/5", s="4/5", reflect=False):
    return {"zoom": zoom, "c": c, "s": s, "reflect": reflect}


def _trace_with_frames(path, *frame_lists):
    header = {"type": "header", "backend": "exact", "nG": 3, "k": None, "seed": None, "horizon": None}
    header["initial"] = [["0", "0"], ["0", "0"], ["5", "5"]]
    rounds = [
        {"type": "round", "index": i, "steps": frames, "locations": header["initial"]}
        for i, frames in enumerate(frame_lists)
    ]
    _write_records(path, header, *rounds, {"type": "end"})


def test_read_trace_shares_a_repeated_frame(tmp_path):
    # one checked FrameParams per distinct zoom, c, s and reflect; an equal
    # frame written differently, or reflected, is a separate object
    path = tmp_path / "t.jsonl"
    _trace_with_frames(
        path,
        [_frame(), _frame(), None],
        [_frame(zoom="2/4"), _frame(reflect=True), _frame()],
    )
    (a, b, _), (c, d, e) = (step.action.steps for step in traceio.read_trace(str(path)).trace.steps)
    assert a is b is e
    assert c == a and c is not a
    assert d is not a and d.reflect and not a.reflect


@pytest.mark.parametrize(
    "bad",
    [_frame(zoom="0"), _frame(c="1", s="1"), _frame(reflect=1), _frame(reflect="false")],
    ids=["zoom-zero", "not-unit-pair", "reflect-one", "reflect-string"],
)
def test_read_trace_rejects_an_invalid_frame_after_a_valid_one(tmp_path, bad):
    # the memo never holds an invalid frame, and reflect 1 is not taken for
    # the frame with reflect true read before it
    path = tmp_path / "t.jsonl"
    _trace_with_frames(path, [_frame(reflect=True), None, None], [bad, None, None])
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(str(path))
    _trace_with_frames(path, [bad, None, None], [bad, None, None])
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(str(path))


def test_read_trace_rejects_a_round_index_out_of_position(tmp_path):
    # the k-th round record must have index k
    path = tmp_path / "t.jsonl"
    _trace_with_frames(path, [None] * 3, [None] * 3)
    traceio.read_trace(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for indices in ([0, 0], [1, 2], [1, 0], [-1, 0]):
        for rec, index in zip(records[1:3], indices):
            rec["index"] = index
        _write_records(path, *records)
        with pytest.raises(traceio.TraceFormatError, match="index"):
            traceio.read_trace(str(path))


def test_write_trace_analyzes_each_distinct_majority_summary_once(tmp_path, monkeypatch):
    # a majority summary computes its clean flag (a SEC) on its first read
    # and keeps it; rounds that move no robot share one summary, so
    # write_trace runs _analyze once per distinct majority summary
    # read_scenario shares the three (0, 0) robots, as robogather run does
    points = [["0", "0"], ["0", "0"], ["0", "0"], ["5", "5"], ["1", "3"]]
    data = _scenario_dict(nG=5, initial={"points": points}, demon={"kind": "round_robin"})
    backend, conf, strat, horizon = traceio.read_scenario(data)
    assert conf[0] is conf[1] is conf[2]
    trace, summaries = verify.execute_global(strat, conf, backend, horizon)
    # a round record's clean flag is its result's: summaries after the first
    majority = [s for s in summaries[1:] if s.phase is gather2d.Phase.MAJORITY]
    distinct = len({id(s) for s in majority})
    assert 0 < distinct < len(majority)
    calls = []
    analyze = gather2d._analyze
    monkeypatch.setattr(gather2d, "_analyze", lambda *args: calls.append(1) or analyze(*args))
    traceio.write_trace(str(tmp_path / "t.jsonl"), trace, backend, summaries=summaries)
    assert len(calls) == distinct


def _reference_trace_bytes(trace, backend, k=None, strategy_kind=None, seed=None, horizon=None):
    """A trace file as ``json.dumps`` of each whole record, the writer's
    format written the plain way: ``write_trace`` splices JSON text it made
    once per distinct object and must give exactly these bytes."""
    coord = str if backend.is_exact else float

    def point(p):
        return [coord(p.x), coord(p.y)]

    def frame(fp):
        if fp is None:
            return None
        return {"zoom": coord(fp.zoom), "c": coord(fp.c), "s": coord(fp.s), "reflect": fp.reflect}

    summaries = list(verify.summaries_of(trace, backend))
    header = {
        "type": "header",
        "backend": backend.name,
        "nG": len(trace.initial),
        "k": k,
        "strategy": strategy_kind,
        "seed": seed,
        "horizon": horizon,
        "initial": [point(p) for p in trace.initial],
    }
    if not backend.is_exact:
        header["eps"] = {"abs": backend.eps_abs, "rel": backend.eps_rel}
    records = [header]
    gathered_round = 0 if summaries[0].gathered_pt is not None else None
    for step, prev, summary in zip(trace.steps, trace.configs(), summaries[1:]):
        records.append(
            {
                "type": "round",
                "index": step.index,
                "steps": [frame(fp) for fp in step.action.steps],
                "locations": [point(p) for p in step.config],
                "phase": summary.phase.value,
                "measure": [summary.measure.weight, summary.measure.residual],
                "moving": [i for i, (p, q) in enumerate(zip(prev, step.config)) if not backend.points_eq(p, q)],
                "clean": summary.clean,
                "forbidden": summary.forbidden,
                "gathered": summary.gathered_pt is not None,
            }
        )
        if gathered_round is None and summary.gathered_pt is not None:
            gathered_round = step.index + 1
    end = {"type": "end", "rounds": len(trace.steps), "stopped_early": trace.stopped_early}
    records.append(dict(end, gathered_round=gathered_round))
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _edge_case_trace(backend):
    """Rounds that stress the writer's reuse: every frame null on the very
    objects of the configuration before, an equal configuration made of new
    objects, a robot that moves, and a signed zero on floats."""
    zero = -0.0 if not backend.is_exact else F(0)
    a, b, c = Point(zero, backend.scalar(0)), backend.point(4, 0), backend.point(0, 3)
    initial = (a, a, b, c)
    rng = random.Random(3)
    frames = [verify.DEFAULT_POLICY.sample(rng, backend) for _ in range(3)]
    copies = tuple(Point(p.x, p.y) for p in initial)
    moved = (copies[0], copies[1], copies[2], a)
    actions = [
        (None, None, None, None),
        (frames[0], None, frames[1], frames[0]),
        (None, None, None, frames[2]),
        (None, None, None, None),
        (frames[1], frames[1], None, None),
    ]
    configs = [initial, copies, moved, moved, tuple(moved)]
    steps = [model.TraceStep(i, model.DemonicAction(act), conf) for i, (act, conf) in enumerate(zip(actions, configs))]
    return model.Trace(initial, steps)


@pytest.mark.parametrize("backend", [EXACT, FLOAT64], ids=["exact", "float"])
@pytest.mark.parametrize("case", ["edge", "run"])
def test_write_trace_bytes_equal_json_dumps_of_each_record(tmp_path, backend, case):
    if case == "edge":
        trace, fields = _edge_case_trace(backend), {}
    else:
        trace, strat = _make_trace(backend, seed=5, n=6, rounds=30)
        fields = {"k": strat.k, "strategy_kind": strat.kind, "seed": 5, "horizon": 30}
    path = tmp_path / "t.jsonl"
    traceio.write_trace(str(path), trace, backend, **fields)
    assert path.read_bytes() == _reference_trace_bytes(trace, backend, **fields)
    if case == "edge":
        text = path.read_text()
        assert '"steps": [null, null, null, null]' in text
        assert ("-0.0" in text) is not backend.is_exact


def _float_trace(path, *location_lists, steps=None):
    header = {"type": "header", "backend": "floating", "nG": 3, "k": None, "seed": None, "horizon": None}
    header["initial"] = location_lists[0]
    rounds = [
        {"type": "round", "index": i, "steps": steps or [None] * 3, "locations": locations}
        for i, locations in enumerate(location_lists[1:])
    ]
    _write_records(path, header, *rounds, {"type": "end"})


def test_read_trace_point_memo_keeps_equal_json_numbers_apart(tmp_path):
    # a repeated pair is the point read before it only when its repr is
    # equal too: 1 and 1.0, and 0.0 and -0.0, are equal values written apart
    path = tmp_path / "t.jsonl"
    base = [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
    ints = [[1, 0.0], [2.0, 0.0], [0.0, 0.0]]
    signed = [[1, 0.0], [2.0, 0.0], [0.0, -0.0]]
    _float_trace(path, base, base, ints, ints, signed)
    initial, *configs = traceio.read_trace(str(path)).trace.configs()
    assert configs[1] == initial and configs[1][0] is not initial[0] and configs[1][1] is initial[1]
    assert configs[3] == configs[2] and configs[3][2] is not configs[2][2]
    assert str(configs[3][2].y) == "-0.0" and str(configs[2][2].y) == "0.0"


def test_check_rejects_a_repeated_locations_list_with_a_bool(tmp_path, capsys):
    # [true, 0.0] equals [1.0, 0.0] as a value: the bool is an input error,
    # not the point before
    path = tmp_path / "t.jsonl"
    base = [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
    _float_trace(path, base, base, [[True, 0.0], [2.0, 0.0], [0.0, 0.0]])
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(path)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "True" in err and "Traceback" not in err


def test_read_trace_reads_a_frame_with_its_keys_in_another_order_as_an_equal_frame(tmp_path):
    # a frame is keyed by its whole JSON object, names and values: the same
    # values under swapped names are another frame
    path = tmp_path / "t.jsonl"
    reordered = {"reflect": False, "s": "4/5", "c": "3/5", "zoom": "1/2"}
    _trace_with_frames(path, [_frame(), None, None], [reordered, _frame(c="4/5", s="3/5"), None])
    (a, _, _), (b, c, _) = (step.action.steps for step in traceio.read_trace(str(path)).trace.steps)
    assert a == b and b.form == a.form
    assert (c.c, c.s) == (F(4, 5), F(3, 5)) and c.form != a.form


@pytest.mark.parametrize(
    "bad",
    [_frame(zoom="0"), _frame(c="1", s="1"), _frame(reflect=1), ["1/2", "3/5"]],
    ids=["zoom-zero", "not-unit-pair", "reflect-one", "a-pair-read-before"],
)
def test_check_exits_one_on_an_invalid_frame_after_a_valid_one(tmp_path, capsys, bad):
    # points and frames have memos of their own: a frame written as a pair
    # that was read as a point is not taken for that point
    path = tmp_path / "t.jsonl"
    _trace_with_frames(path, [_frame(reflect=True), None, None], [None, None, None])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["initial"][0] = ["1/2", "3/5"]
    records[2]["steps"][0] = bad
    _write_records(path, *records)
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(path)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_exact_fuzz_run_traces_keep_their_bytes(tmp_path):
    # the traces of twelve seed-0.. exact fuzz runs (all four default
    # demons): the demon's frame draws, the executed round and the writer
    # give the same bytes as before only activated robots were visited
    digest = hashlib.sha256()
    for run_seed in range(12):
        spec, trace, _ = verify.run_one(run_seed, EXACT)
        path = str(tmp_path / f"{run_seed}.jsonl")
        traceio.write_trace(
            path, trace, EXACT, k=spec.k, strategy_kind=spec.strategy_kind, seed=spec.strategy_seed, horizon=spec.horizon
        )
        with open(path, "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == "f393b7e2ffb6928e7cff9d4ceb1051b6f4bf420bdba5b23acdbff27d6663c86c"
