import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import distinct_configs
from robogather import cli, gather2d, geometry, model, render, traceio, verify
from robogather.scalars import FLOAT64, Point

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_scenario(tmp_path, name="s.json", **overrides):
    data = {
        "nG": 3,
        "backend": "exact",
        "initial": {"points": [["0", "0"], ["0", "0"], ["5", "5"]]},
        "demon": {"kind": "all_active", "seed": 1},
        "horizon": 20,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_run_gathers_exit_zero(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    assert "gathered" in capsys.readouterr().out
    lines = [json.loads(l) for l in open(out) if l.strip()]
    assert lines[0]["type"] == "header"
    assert lines[-1]["type"] == "end"
    assert lines[-1]["gathered_round"] == 1


def test_run_header_names_unfair_strategy(tmp_path):
    scenario = _write_scenario(tmp_path, demon={"kind": "unfair_skip0", "seed": 1})
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    header = json.loads(open(out).readline())
    assert header["strategy"] == "unfair_skip0"


def test_run_gathered_start_trace_length_one(tmp_path):
    scenario = _write_scenario(
        tmp_path, initial={"points": [["1", "1"], ["1", "1"], ["1", "1"]]}
    )
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    lines = [json.loads(l) for l in open(out) if l.strip()]
    assert [l["type"] for l in lines] == ["header", "end"]
    assert lines[-1]["gathered_round"] == 0


def test_run_bad_scenario_exit_one(tmp_path):
    scenario = _write_scenario(tmp_path, nG=2)
    assert (
        cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "t.jsonl")])
        == cli.EXIT_INPUT
    )


def test_run_forbidden_start_needs_flag(tmp_path):
    # a tower-at-a-time fair script keeps a bivalent configuration bivalent
    # forever: the moving pair always lands on a fresh shared midpoint
    scenario = _write_scenario(
        tmp_path,
        nG=4,
        initial={"points": [["0", "0"], ["0", "0"], ["1", "1"], ["1", "1"]]},
        demon={"kind": "adversarial", "seed": 0, "k": 2, "script": [[0, 1], [2, 3]]},
    )
    out = str(tmp_path / "t.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_INPUT
    assert (
        cli.main(["run", "--scenario", scenario, "--out", out, "--allow-forbidden"])
        == cli.EXIT_HORIZON
    )


def test_run_horizon_exhausted_exit_two(tmp_path):
    # a single-robot-per-round demon cannot gather 3 scattered robots in 1 round
    scenario = _write_scenario(
        tmp_path,
        initial={"points": [["0", "0"], ["3", "0"], ["5", "5"]]},
        demon={"kind": "round_robin", "seed": 0},
        horizon=1,
    )
    out = str(tmp_path / "t.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_HORIZON


def test_check_roundtrip_exit_zero(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = str(tmp_path / "trace.jsonl")
    cli.main(["run", "--scenario", scenario, "--out", out])
    assert cli.main(["check", "--trace", out]) == cli.EXIT_OK
    assert "chaining" in capsys.readouterr().out


def test_check_corrupted_trace_exit_three(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = str(tmp_path / "trace.jsonl")
    cli.main(["run", "--scenario", scenario, "--out", out])
    lines = open(out).read().splitlines()
    rec = json.loads(lines[1])
    rec["locations"][2] = ["999", "999"]
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["check", "--trace", str(bad)]) == cli.EXIT_VIOLATION
    assert "chaining" in capsys.readouterr().out


def _set_frame(key, value):
    def edit(records):
        records[1]["steps"][0][key] = value

    return edit


def _set_unit_pair(records):
    records[1]["steps"][0].update(c="1", s="1")


def _set_header_initial(records):
    records[0]["initial"] = 5


def _empty_initial(records):
    # a header with no robots and no round records after it
    records[0].update(initial=[], nG=0)
    records[1:-1] = []


def _set_header_eps(records):
    records[0]["eps"] = 3


def _list_round(records):
    records[1] = [1, 2]


def _set_header_eps_nan(records):
    records[0].update(backend="floating", eps={"abs": float("nan"), "rel": 1e-9})


def _set_header(key, value):
    def edit(records):
        records[0][key] = value

    return edit


def _set_round_index(records):
    records[1]["index"] = 0.5


def _set_round_index_to(index):
    def edit(records):
        records[1]["index"] = index

    return edit


def _repeat_round(records):
    # two round records with index 0
    records.insert(2, dict(records[1]))


def _set_end_stopped_early(records):
    records[-1]["stopped_early"] = "no"


def _on_floats(edit):
    def edit_floating(records):
        records[0]["backend"] = "floating"
        edit(records)

    return edit_floating


def _set_location(value):
    def edit(records):
        records[1]["locations"][2] = [value, "5"]

    return edit


def _floating_points(x):
    return {"backend": "floating", "initial": {"points": [[x, 0.0], [0.0, 0.0], [5.0, 5.0]]}}


# a bivalent start that a non-bool allow_forbidden must not let through
_BIVALENT = {
    "nG": 4,
    "initial": {"points": [["0", "0"], ["0", "0"], ["1", "1"], ["1", "1"]]},
    "demon": {"kind": "adversarial", "seed": 0, "k": 2, "script": [[0, 1], [2, 3]]},
}


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("scenario", {"nG": "abc"}),
        ("scenario", {"demon": "x"}),
        ("scenario", {"eps": 3}),
        ("scenario", {"initial": {"generator": {"seed": "zz"}}}),
        ("scenario", {"initial": {"generator": {"pool": 0}}}),
        ("scenario", {"demon": {"kind": "all_active", "zoom_range": ["0", "0"]}}),
        ("scenario", {"demon": {"kind": "all_active", "sed": 5}}),
        ("scenario", {"demon": {"kind": "adversarial", "script": [[7]]}}),
        ("scenario", {"demon": {"kind": "adversarial", "script": ["12"]}}),
        ("scenario", {"demon": {"kind": "random_kfair", "k": -4}, "horizon": None}),
        ("scenario", {"horizon": -3}),
        ("scenario", {"demon": {"kind": "round_robin", "k": 1}}),
        ("scenario", {"demon": {"kind": "all_active", "script": [[0]]}}),
        ("scenario", {"backend": "floating", "eps": {"abs": -1}}),
        ("scenario", {"horizon": 99.7}),
        ("scenario", {"demon": {"kind": "all_active", "seed": True}}),
        ("scenario", {"backend": "floating", "eps": {"abs": True, "rel": True}}),
        ("scenario", {**_BIVALENT, "allow_forbidden": "false"}),
        ("scenario", _floating_points(float("nan"))),
        ("scenario", _floating_points(float("inf"))),
        ("scenario", _floating_points(1e300)),
        ("scenario", _floating_points("1e400")),
        ("scenario", _floating_points(True)),
        ("scenario", {"backend": "floating", "initial": {"generator": {"bbox": 10**198}}}),
        ("scenario", {"initial": {"points": [[0.1, 0], [0.1, 0], [5, 5.5]]}}),
        ("scenario", {"initial": {"points": [[1e23, 0], [0, 0], [0, 1]]}}),
        ("scenario", {"horizn": 3}),
        ("scenario", {"initial": {"pionts": [["0", "0"], ["0", "0"], ["5", "5"]]}}),
        ("scenario", {"initial": {"generator": {"pol": 1}}}),
        ("scenario", {"backend": "floating", "eps": {"rle": 0.5}}),
        ("scenario", {"initial": {"points": [["0", "0"], ["0", "0"], ["5", "5"]], "generator": {"seed": 1}}}),
        ("fuzz", ["--horizon", "-3"]),
        ("fuzz", ["--runs", "-3"]),
        ("fuzz", ["--runs", "0"]),
        ("fuzz", ["--backend", "floating", "--eps", "nan"]),
        ("fuzz", ["--backend", "floating", "--eps", "0"]),
        ("fuzz", ["--backend", "floating", "--eps", "1e-15"]),
        ("fuzz-out", "F/sub"),
        ("scenario", {"backend": "floating", "eps": {"abs": 0, "rel": 0}}),
        ("run", ["--eps", "-1"]),
        ("run", ["--backend", "floating", "--eps", "-1"]),
        ("run", ["--backend", "floating", "--eps", "inf"]),
        ("render", ["--max-panels", "0"]),
        ("trace", _list_round),
        ("trace", _set_header_initial),
        ("trace", _empty_initial),
        ("render-trace", _empty_initial),
        ("trace", _set_header("nG", 7)),
        ("trace", _set_header("nG", "3")),
        ("trace", _set_header_eps),
        ("trace", _set_header_eps_nan),
        ("trace", _set_frame("zoom", "0")),
        ("trace", _set_unit_pair),
        ("trace", _set_header("k", 0)),
        ("trace", _set_header("k", -1)),
        ("trace", _set_header("k", 2.5)),
        ("trace", _set_header("k", True)),
        ("trace", _set_header("seed", True)),
        ("trace", _set_header("seed", "abc")),
        ("trace", _set_header("seed", 2.5)),
        ("trace", _set_header("seed", [1])),
        ("trace", _on_floats(_set_header("eps", {"abs": 1e-15, "rel": 0}))),
        ("trace", _set_round_index),
        ("trace", _set_round_index_to(1)),
        ("trace", _set_round_index_to(-1)),
        ("trace", _repeat_round),
        ("trace", _set_frame("reflect", "no")),
        ("trace", _set_end_stopped_early),
        ("trace", _on_floats(_set_location(float("nan")))),
        ("trace", _on_floats(_set_location(float("inf")))),
        ("trace", _on_floats(_set_frame("zoom", float("inf")))),
        ("trace", _on_floats(_set_frame("zoom", 1e300))),
        ("trace", _on_floats(_set_frame("c", float("inf")))),
        ("trace", _on_floats(_set_location(True))),
        ("trace", _on_floats(_set_frame("zoom", True))),
        ("trace", _set_location(0.1)),
        ("trace", _set_frame("zoom", 0.5)),
        ("trace", _set_location(True)),
        ("trace", _set_location(5.0)),
        ("trace", _set_frame("zoom", 1.0)),
    ],
    ids=[
        "nG-not-int",
        "demon-not-object",
        "eps-not-object",
        "generator-seed-not-int",
        "generator-pool-empty",
        "demon-zoom-range",
        "demon-unknown-key",
        "script-id-out-of-range",
        "script-entry-not-list",
        "demon-k-negative",
        "horizon-negative",
        "demon-k-not-the-kinds",
        "demon-script-not-adversarial",
        "eps-abs-negative",
        "horizon-not-int",
        "demon-seed-bool",
        "eps-bool",
        "allow-forbidden-string",
        "floating-point-nan",
        "floating-point-inf",
        "floating-point-1e300",
        "floating-point-string-1e400",
        "floating-point-bool",
        "floating-generator-bbox-1e198",
        "exact-point-non-integral-number",
        "exact-point-integral-number-1e23",
        "unknown-top-level-key",
        "initial-unknown-key",
        "generator-unknown-key",
        "eps-unknown-key",
        "points-with-generator",
        "fuzz-horizon-negative",
        "fuzz-runs-negative",
        "fuzz-runs-zero",
        "fuzz-eps-nan",
        "fuzz-floating-eps-zero",
        "fuzz-floating-eps-1e-15",
        "fuzz-out-under-a-regular-file",
        "floating-eps-below-floor",
        "run-eps-negative",
        "run-floating-eps-negative",
        "run-floating-eps-inf",
        "render-max-panels-zero",
        "round-record-is-list",
        "header-initial-not-list",
        "header-initial-empty",
        "render-header-initial-empty",
        "header-nG-not-initial-count",
        "header-nG-string",
        "header-eps-not-object",
        "header-eps-nan",
        "frame-zoom-zero",
        "frame-not-unit-pair",
        "header-k-zero",
        "header-k-negative",
        "header-k-not-int",
        "header-k-bool",
        "header-seed-bool",
        "header-seed-string",
        "header-seed-float",
        "header-seed-list",
        "header-eps-below-floor",
        "round-index-not-int",
        "round-index-one-at-position-zero",
        "round-index-negative",
        "round-index-repeated",
        "frame-reflect-string",
        "end-stopped-early-string",
        "floating-location-nan",
        "floating-location-inf",
        "floating-frame-zoom-inf",
        "floating-frame-zoom-1e300",
        "floating-frame-c-inf",
        "floating-location-bool",
        "floating-frame-zoom-bool",
        "exact-location-non-integral-number",
        "exact-frame-zoom-non-integral-number",
        "exact-location-bool",
        "exact-location-integral-number",
        "exact-frame-zoom-integral-number",
    ],
)
def test_malformed_input_exit_one_without_traceback(tmp_path, capsys, kind, edit):
    if kind == "scenario":
        scenario = _write_scenario(tmp_path, **edit)
        argv = ["run", "--scenario", scenario, "--out", str(tmp_path / "t.jsonl")]
    elif kind == "fuzz":
        argv = ["fuzz", "--runs", "2", "--out", str(tmp_path / "cex"), *edit]
    elif kind == "fuzz-out":
        # a failing campaign whose output directory lies under a regular file
        (tmp_path / "F").write_text("kept")
        argv = ["fuzz", "--runs", "2", "--seed", "0", "--strategies", "unfair_skip0", "--out", str(tmp_path / edit)]
    elif kind == "run":
        argv = ["run", "--scenario", _write_scenario(tmp_path), "--out", str(tmp_path / "t.jsonl"), *edit]
    elif kind == "render":
        out = str(tmp_path / "trace.jsonl")
        assert cli.main(["run", "--scenario", _write_scenario(tmp_path), "--out", out]) == 0
        argv = ["render", "--trace", out, "--out", str(tmp_path / "t.svg"), *edit]
    else:
        out = str(tmp_path / "trace.jsonl")
        assert cli.main(["run", "--scenario", _write_scenario(tmp_path), "--out", out]) == 0
        records = [json.loads(line) for line in open(out) if line.strip()]
        edit(records)
        (tmp_path / "bad.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = ["check", "--trace", str(tmp_path / "bad.jsonl")]
        if kind == "render-trace":
            argv = ["render", "--trace", str(tmp_path / "bad.jsonl"), "--out", str(tmp_path / "t.svg")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    if kind == "fuzz-out":
        assert [p.name for p in tmp_path.iterdir()] == ["F"] and (tmp_path / "F").read_text() == "kept"


def test_unknown_demon_kind_error_lists_the_kinds(tmp_path, capsys):
    scenario = _write_scenario(tmp_path, demon={"kind": "bogus"})
    assert cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "t.jsonl")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'bogus'" in err
    assert "'round_robin'" in err and "'unfair_skip0'" in err


def test_check_reusing_summaries_prints_the_reference_report(tmp_path, capsys, monkeypatch):
    # check summarizes a round that moves no robot once, by the identity of
    # the points read_trace shares; with that reuse switched off, every
    # configuration is summarized and the report is the same
    scenario = _write_scenario(
        tmp_path,
        nG=8,
        initial={"generator": {"bbox": 8, "pool": 5, "seed": 3}},
        demon={"kind": "single_mover", "seed": 2},
        horizon=None,
    )
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    configs = traceio.read_trace(out).trace.configs()
    idle = sum(a == b for a, b in zip(configs, configs[1:]))
    assert idle >= 5
    calls = Counter()
    summarize = gather2d.summarize

    def counted_summarize(*args, **kwargs):
        calls["summarize"] += 1
        return summarize(*args, **kwargs)

    def no_reuse(conf, prev_sum, backend):
        return gather2d.summarize(conf, backend)

    monkeypatch.setattr(gather2d, "summarize", counted_summarize)
    capsys.readouterr()
    assert cli.main(["check", "--trace", out]) == cli.EXIT_OK
    with_reuse = capsys.readouterr().out
    assert calls["summarize"] == len(configs) - idle
    monkeypatch.setattr(verify, "_summarize_after", no_reuse)
    calls.clear()
    assert cli.main(["check", "--trace", out]) == cli.EXIT_OK
    assert capsys.readouterr().out == with_reuse
    assert calls["summarize"] == len(configs)


def test_floating_trace_with_a_bool_coordinate_after_its_number_exits_one(tmp_path, capsys):
    # shared points are keyed on pairs of strings only: [true, 0.0] is never
    # taken for the [1.0, 0.0] read before it
    scenario = _write_scenario(tmp_path, **_floating_points(1.0))
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    records = [json.loads(line) for line in open(out) if line.strip()]
    assert records[0]["initial"][0] == [1.0, 0.0]
    records[1]["locations"][0] = [True, 0.0]
    (tmp_path / "bad.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(tmp_path / "bad.jsonl")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_check_header_eps_nan_names_the_tolerance(tmp_path, capsys):
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", _write_scenario(tmp_path), "--out", out]) == cli.EXIT_OK
    records = [json.loads(line) for line in open(out) if line.strip()]
    _set_header_eps_nan(records)
    (tmp_path / "bad.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(tmp_path / "bad.jsonl")]) == cli.EXIT_INPUT
    assert "eps.abs must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "demon, key",
    [
        ({"kind": "round_robin", "k": 1, "script": [[0]]}, "'k'"),
        ({"kind": "all_active", "k": 2}, "'k'"),
        ({"kind": "unfair_skip0", "k": 1}, "'k'"),
        ({"kind": "round_robin", "script": [[0], [1], [2]]}, "'script'"),
        ({"kind": "random_kfair", "k": 4, "script": [[0]]}, "'script'"),
    ],
    ids=["round_robin-k", "all_active-k", "unfair_skip0-k", "round_robin-script", "random_kfair-script"],
)
def test_run_rejects_demon_key_the_kind_ignores(tmp_path, capsys, demon, key):
    scenario = _write_scenario(tmp_path, demon=demon)
    assert cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "t.jsonl")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("kind, k", [("round_robin", 3), ("all_active", 1), ("unfair_skip0", 3)])
def test_run_accepts_the_kinds_own_k(tmp_path, kind, k):
    scenario = _write_scenario(tmp_path, demon={"kind": kind, "seed": 1, "k": k})
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    assert json.loads(open(out).readline())["k"] == k


def test_run_header_records_the_default_demon_seed(tmp_path):
    scenario = _write_scenario(tmp_path, demon={"kind": "round_robin"})
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    assert json.loads(open(out).readline())["seed"] == 0


def test_round_robin_counterexample_replays(tmp_path, capsys):
    # a zero horizon makes every run that does not start gathered a
    # counterexample; its scenario carries k = nG, which round_robin accepts
    outdir = tmp_path / "cex"
    argv = ["fuzz", "--runs", "3", "--strategies", "round_robin", "--horizon", "0", "--out", str(outdir)]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    scenario = outdir / "counterexample_0_scenario.json"
    data = json.loads(scenario.read_text())
    assert data["demon"]["kind"] == "round_robin" and data["demon"]["k"] == data["nG"]
    out = str(tmp_path / "replay.jsonl")
    assert cli.main(["run", "--scenario", str(scenario), "--out", out]) == cli.EXIT_HORIZON
    header = json.loads(open(out).readline())
    assert (header["strategy"], header["k"], header["horizon"]) == ("round_robin", data["nG"], 0)


def test_float_counterexample_replays_at_its_own_tolerance(tmp_path, capsys):
    outdir = tmp_path / "cex"
    argv = ["fuzz", "--runs", "5", "--seed", "0", "--backend", "floating", "--eps", "1e-6"]
    argv += ["--strategies", "unfair_skip0", "--out", str(outdir)]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    out = tmp_path / "replay.jsonl"
    scenario = outdir / "counterexample_0_scenario.json"
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(out)]) == cli.EXIT_HORIZON
    fuzz_header = json.loads((outdir / "counterexample_0_trace.jsonl").read_text().splitlines()[0])
    replay_header = json.loads(out.read_text().splitlines()[0])
    assert replay_header["eps"] == fuzz_header["eps"] == {"abs": 1e-6, "rel": 1e-6}


def test_run_unwritable_out_exit_one(tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "t.jsonl")
    assert cli.main(["run", "--scenario", _write_scenario(tmp_path), "--out", out]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot write trace")


def test_check_empty_file_exit_one(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.main(["check", "--trace", str(empty)]) == cli.EXIT_INPUT


def test_fuzz_reproducible_and_green(tmp_path, capsys):
    args = ["fuzz", "--runs", "8", "--seed", "21", "--backend", "exact"]
    assert cli.main(args) == cli.EXIT_OK
    out1 = capsys.readouterr().out
    assert cli.main(args) == cli.EXIT_OK
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "runs: 8" in out1


def test_fuzz_reports_never_observed_arcs_and_check_does_not(tmp_path, capsys):
    assert cli.main(["fuzz", "--runs", "4", "--seed", "0"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    audit = [line for line in lines if line.startswith("audit: expected arcs never observed: ")]
    assert len(audit) == 1
    arcs = audit[0].split(": ", 2)[2].split(", ")
    assert arcs == sorted(arcs) and all(" -> " in arc for arc in arcs)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "cocircular_demo.json"
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", str(scenario), "--out", out]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["check", "--trace", out]) == cli.EXIT_OK
    assert "never observed" not in capsys.readouterr().out


def test_fuzz_unfair_strategy_exit_three(tmp_path, capsys):
    outdir = str(tmp_path / "cex")
    code = cli.main(
        [
            "fuzz",
            "--runs",
            "6",
            "--seed",
            "3",
            "--strategies",
            "unfair_skip0",
            "--out",
            outdir,
        ]
    )
    assert code == cli.EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "k_fairness" in out and "FAIL" in out
    written = list((tmp_path / "cex").glob("counterexample_*"))
    assert written
    # the frozen scenario must replay
    scenarios = [p for p in written if p.name.endswith("scenario.json")]
    trace_out = str(tmp_path / "replay.jsonl")
    code = cli.main(["run", "--scenario", str(scenarios[0]), "--out", trace_out])
    assert code in (cli.EXIT_OK, cli.EXIT_HORIZON)


def test_fuzz_rejects_unknown_strategy():
    assert cli.main(["fuzz", "--runs", "1", "--strategies", "bogus"]) == cli.EXIT_INPUT


def _robogather(*argv, closed_stdout=False):
    """``python -m robogather argv`` in a fresh interpreter, so a traceback
    would reach stderr. With ``closed_stdout`` its standard output is a pipe
    whose reader is already gone, so every write to it fails (EPIPE)."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cmd = [sys.executable, "-m", "robogather", *argv]
    if not closed_stdout:
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check"], cli.EXIT_OK),
        (["fuzz", "--runs", "3", "--seed", "0"], cli.EXIT_OK),
        (["fuzz", "--runs", "2", "--seed", "0", "--strategies", "unfair_skip0"], cli.EXIT_VIOLATION),
    ],
    ids=["check", "fuzz", "fuzz-counterexamples"],
)
def test_closed_stdout_ends_a_command_with_its_own_exit_code_and_no_traceback(tmp_path, argv, code):
    # as in `robogather check --trace T | head -1` once head has exited: the
    # output is lost, but the verdict is not
    if argv == ["check"]:
        trace = str(tmp_path / "trace.jsonl")
        assert cli.main(["run", "--scenario", _write_scenario(tmp_path), "--out", trace]) == cli.EXIT_OK
        argv = ["check", "--trace", trace]
    elif code == cli.EXIT_VIOLATION:
        argv = [*argv, "--out", str(tmp_path / "cex")]
    done = _robogather(*argv, closed_stdout=True)
    assert done.returncode == code, done.stderr
    assert done.stderr == ""
    if code == cli.EXIT_VIOLATION:
        assert (tmp_path / "cex" / "counterexample_1_trace.jsonl").exists()


def test_fuzz_rejects_a_kind_that_needs_a_script():
    # adversarial cycles through a script the scenario gives; fuzz has none
    done = _robogather("fuzz", "--runs", "1", "--strategies", "adversarial")
    assert done.returncode == cli.EXIT_INPUT
    assert done.stderr.startswith("error: ") and "adversarial" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "points",
    [[["0", "0"], ["1e400", "0"], ["0", "1"]], [["1.7e308", "0"], ["1.7e308", "1"], ["1.7e308", "3"]]],
    ids=["1e400", "center-beyond-float-max"],
)
def test_render_beyond_the_float_range_exits_one_without_traceback(tmp_path, points):
    # run and check read exact coordinates exactly; render draws in floats,
    # where 1e400 overflows and so does the center of points at 1.7e308 (it
    # would draw at NaN), so for render the trace is an input error: no file
    scenario = _write_scenario(tmp_path, initial={"points": points})
    trace, svg = str(tmp_path / "t.jsonl"), tmp_path / "t.svg"
    assert _robogather("run", "--scenario", scenario, "--out", trace).returncode == cli.EXIT_OK
    assert _robogather("check", "--trace", trace).returncode == cli.EXIT_OK
    done = _robogather("render", "--trace", trace, "--out", str(svg))
    assert done.returncode == cli.EXIT_INPUT, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert not svg.exists()


def test_render_to_a_path_it_cannot_write_exits_one(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    assert cli.main(["run", "--scenario", _write_scenario(tmp_path), "--out", trace]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["render", "--trace", trace, "--out", str(tmp_path / "missing" / "t.svg")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_check_reports_a_local_round_geometry_error_as_chaining(tmp_path):
    # robots 0 and 2 are 5.4e-9 apart, three towers under the global
    # tolerance; robot 2's frame zooms by 1/10, and in it the local
    # classify_triangle finds two of the three SEC towers coincident
    conf = (
        Point(2.8620990692958076e-09, 1.000000003816132),
        Point(0.0, 2.494570660529033e-09),
        Point(0.0, 1.0000000084397684),
    )
    da = model.DemonicAction((None, None, model.FrameParams(0.1, 0.6, 0.8, False)))
    after = gather2d.round_global(da.activated(), conf, FLOAT64)
    path = str(tmp_path / "float.jsonl")
    traceio.write_trace(path, model.Trace(conf, [model.TraceStep(0, da, after)]), FLOAT64)
    done = _robogather("check", "--trace", path)
    assert done.returncode in (cli.EXIT_OK, cli.EXIT_VIOLATION), done.stderr
    assert "Traceback" not in done.stderr
    if done.returncode == cli.EXIT_VIOLATION:
        assert "[chaining]" in done.stdout and "DegenerateInput" in done.stdout


def test_render_trace(tmp_path):
    scenario = _write_scenario(tmp_path)
    out = str(tmp_path / "trace.jsonl")
    cli.main(["run", "--scenario", scenario, "--out", out])
    svg = str(tmp_path / "trace.svg")
    assert cli.main(["render", "--trace", out, "--out", svg]) == cli.EXIT_OK
    content = open(svg).read()
    assert content.startswith("<svg")
    assert "circle" in content and "text" in content


def test_render_diameter_phase_shows_circle_and_target(tmp_path):
    scenario = _write_scenario(
        tmp_path,
        nG=5,
        initial={
            "points": [["0", "0"], ["0", "0"], ["2", "0"], ["2", "0"], ["1", "0"]]
        },
        demon={"kind": "round_robin", "seed": 0},
        horizon=40,
    )
    out = str(tmp_path / "trace.jsonl")
    cli.main(["run", "--scenario", scenario, "--out", out])
    svg = str(tmp_path / "d.svg")
    assert cli.main(["render", "--trace", out, "--out", svg]) == cli.EXIT_OK
    content = open(svg).read()
    assert "diameter_clean" in content
    assert "stroke-dasharray" in content  # the SEC
    assert "path d=" in content.replace('"', " ") or "<path" in content  # target marker


def _run_and_load(tmp_path, scenario):
    out = str(tmp_path / "trace.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    loaded = traceio.read_trace(out)
    return loaded, str(tmp_path / "t.svg")


def test_render_majority_marker_is_on_the_highest_tower(tmp_path):
    # robots (0, 0) x2 and (5, 5): the SEC center is (2.5, 2.5), but the
    # robots go to the highest tower at the origin
    loaded, svg = _run_and_load(tmp_path, _write_scenario(tmp_path))
    render.render_trace(loaded.trace, loaded.backend, svg, 1)
    content = open(svg).read()
    assert "majority" in content
    tower = re.search(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="3.4" fill="#226"/>\n<text [^>]*>2</text>', content)
    tx, ty = float(tower.group(1)), float(tower.group(2))
    assert f'<path d="M {tx - 5:.2f} {ty:.2f} H {tx + 5:.2f} M {tx:.2f} {ty - 5:.2f} V {ty + 5:.2f}"' in content


def test_render_analyses_each_configuration_once(tmp_path, monkeypatch):
    # one spectrum and one SEC per distinct summary: the first trace has no
    # repeated configuration; in the second, round-robin robots activated on
    # the highest tower hold still, and those majority panels share a summary
    calls = Counter()
    for mod, name in ((model, "spectrum_of"), (geometry, "sec")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, counted)
    starts = (
        [["0", "0"], ["0", "0"], ["2", "0"], ["2", "0"], ["1", "0"]],
        [["0", "0"], ["0", "0"], ["5", "5"], ["1", "3"]],
    )
    for points, repeats in zip(starts, (False, True)):
        scenario = _write_scenario(
            tmp_path,
            nG=len(points),
            initial={"points": points},
            demon={"kind": "round_robin", "seed": 0},
            horizon=40,
        )
        loaded, svg = _run_and_load(tmp_path, scenario)
        calls.clear()
        render.render_trace(loaded.trace, loaded.backend, svg, 24)
        n = len(loaded.trace.configs())
        distinct = distinct_configs(loaded.trace)
        assert n > 2 and (distinct < n) == repeats
        assert calls == {"spectrum_of": distinct, "sec": distinct}


def test_render_summarizes_each_distinct_configuration_once(tmp_path, monkeypatch):
    # render reads its summaries from verify.summaries_of: a round that moves
    # no robot keeps the Point objects read_trace shares and reuses the
    # summary before it
    scenario = _write_scenario(
        tmp_path,
        nG=8,
        initial={"generator": {"bbox": 8, "pool": 5, "seed": 3}},
        demon={"kind": "single_mover", "seed": 2},
        horizon=None,
    )
    loaded, svg = _run_and_load(tmp_path, scenario)
    calls = []
    summarize = gather2d.summarize
    monkeypatch.setattr(gather2d, "summarize", lambda *args: calls.append(1) or summarize(*args))
    render.render_trace(loaded.trace, loaded.backend, svg, 24)
    assert len(calls) == distinct_configs(loaded.trace) < len(loaded.trace.configs())


def test_run_summarizes_each_configuration_once_and_never_runs_the_local_round(tmp_path, monkeypatch):
    # run executes on round_global with one summary per distinct
    # configuration (a round that moves no robot keeps the same Point objects
    # and reuses the summary before it), shared by the demon, the executed
    # round, the stop rule and the trace writer; the local model.round is
    # left to check
    calls = Counter()
    traces = []

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(gather2d, "summarize")
    count(model, "round")
    write_trace = traceio.write_trace

    def counted_write_trace(*args, **kwargs):
        before = calls["summarize"]
        try:
            return write_trace(*args, **kwargs)
        finally:
            calls["summarize_in_write_trace"] += calls["summarize"] - before

    monkeypatch.setattr(traceio, "write_trace", counted_write_trace)
    execute_global = verify.execute_global

    def kept_execute_global(*args, **kwargs):
        trace, summaries = execute_global(*args, **kwargs)
        traces.append(trace)
        return trace, summaries

    monkeypatch.setattr(verify, "execute_global", kept_execute_global)
    scenarios = [
        str(Path(__file__).resolve().parent.parent / "scenarios" / "cocircular_demo.json"),
        _write_scenario(
            tmp_path,
            nG=8,
            initial={"generator": {"bbox": 8, "pool": 5, "seed": 3}},
            demon={"kind": "single_mover", "seed": 2},
            horizon=None,
        ),
    ]
    for i, scenario in enumerate(scenarios):
        out = str(tmp_path / f"trace{i}.jsonl")
        assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    configs = sum(len(trace.configs()) for trace in traces)
    distinct = sum(distinct_configs(trace) for trace in traces)
    assert len(traces) == 2 and configs > 20
    assert calls == {"summarize": distinct, "summarize_in_write_trace": 0}
    assert distinct < configs


@pytest.mark.parametrize("n", [5, 12, 32])
def test_floating_run_then_check_exits_zero(tmp_path, n):
    # run executes the global round and check replays the local one: on
    # floats their results differ in the last bits, inside the tolerance
    for kind in verify.FUZZ_KINDS:
        scenario = _write_scenario(
            tmp_path,
            name=f"{kind}.json",
            nG=n,
            backend="floating",
            initial={"generator": {"bbox": n, "pool": n, "seed": n}},
            demon={"kind": kind, "seed": n},
            horizon=None,
        )
        out = str(tmp_path / f"{kind}.jsonl")
        assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK, kind
        assert cli.main(["check", "--trace", out]) == cli.EXIT_OK, kind
        assert traceio.read_trace(out).trace.steps, kind


def test_floating_fuzz_spec_replays_bit_for_bit_through_run(tmp_path, capsys):
    # fuzz and run share one execution loop on the global round, so a frozen
    # floating fuzz spec replays to the same bits until run stops at gathering
    master = random.Random(7)
    for i in range(200):
        spec, trace, _rep = verify.run_one(master.randrange(2**62), FLOAT64)
        scenario = str(tmp_path / "spec.json")
        traceio.save_scenario(traceio.scenario_for_run(spec, FLOAT64), scenario)
        out = str(tmp_path / "replay.jsonl")
        assert cli.main(["run", "--scenario", scenario, "--out", out]) in (cli.EXIT_OK, cli.EXIT_HORIZON)
        capsys.readouterr()
        replay = traceio.read_trace(out).trace
        n = len(replay.steps)
        assert n <= len(trace.steps), i
        assert replay.configs() == trace.configs()[: n + 1], i
        assert replay.actions() == trace.actions()[:n], i


def test_render_bad_trace_exit_one(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("nonsense\n")
    assert (
        cli.main(["render", "--trace", str(bad), "--out", str(tmp_path / "x.svg")])
        == cli.EXIT_INPUT
    )


# sha256 of the trace each bundled scenario writes on the exact backend. A
# change that alters any of these bytes changes replay, not just speed.
BUNDLED_TRACE_SHA256 = {
    "cocircular_demo": "d339ca3826c65f5b5fea15cb3c70e6cf7a8c9c111f4236a32c3883ec881ab662",
    "majority_demo": "2468970fdb4cbb71b3788bfeb29459a97566cf2e3b00bfe8257de758cbe7912d",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_TRACE_SHA256))
def test_bundled_scenario_trace_is_byte_identical(tmp_path, name):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    out = tmp_path / f"{name}.jsonl"
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUNDLED_TRACE_SHA256[name]


# sha256 of the trace each bundled scenario writes on the floating backend
# (``run --backend floating``): float traces are pinned here, since the
# benchmark pins only exact ones.
BUNDLED_FLOAT_TRACE_SHA256 = {
    "cocircular_demo": "66b3a3d53ea22e0e251c02973fd075bf9639cc244435e0b9fd0200da8ae76284",
    "majority_demo": "a1a0e0920d881d4ed1a39efb123794e904acc0dcb2cd917bf6144011cb4f9ce5",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_FLOAT_TRACE_SHA256))
def test_bundled_scenario_float_trace_is_byte_identical(tmp_path, name):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    out = tmp_path / f"{name}.jsonl"
    argv = ["run", "--scenario", str(scenario), "--backend", "floating", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUNDLED_FLOAT_TRACE_SHA256[name]


# sha256 of the first counterexample scenario a seed-0 campaign of the
# unfair demon writes on each backend: the scenario file format is
# ``json.dump(..., indent=2)`` and a newline, keys in the order nG, backend,
# initial, demon, eps (floats only), horizon.
COUNTEREXAMPLE_SCENARIO_SHA256 = {
    "exact": "b3c3f91289e493178a040ea88c7d248e2a861d0ac96b29d6683f5af0bfe2c6c0",
    "floating": "44f665c89c8c718518bc258ce9ecfdc6fc92113de867a819ec26051edf79d56b",
}


@pytest.mark.parametrize("backend", sorted(COUNTEREXAMPLE_SCENARIO_SHA256))
def test_counterexample_scenario_file_is_byte_identical(tmp_path, capsys, backend):
    argv = ["fuzz", "--strategies", "unfair_skip0", "--seed", "0", "--backend", backend, "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_VIOLATION
    path = tmp_path / "counterexample_0_scenario.json"
    written = path.read_bytes()
    assert hashlib.sha256(written).hexdigest() == COUNTEREXAMPLE_SCENARIO_SHA256[backend]
    # loading and saving the file again gives the same bytes
    again = tmp_path / "again.json"
    traceio.save_scenario(traceio.load_scenario(str(path)), str(again))
    assert again.read_bytes() == written


def test_undecodable_scenario_or_trace_exit_one_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}\n")
    for argv in (["run", "--scenario", str(bad), "--out", str(tmp_path / "t.jsonl")], ["check", "--trace", str(bad)]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")


def test_parser_reuse_leaks_no_state_between_calls(tmp_path, capsys):
    # the parser is built once per process; an option given to one call
    # must not reach the next, and a rejected command must not change a
    # later one: each second call writes what a fresh interpreter writes
    assert cli.build_parser() is cli.build_parser()
    points = [["0", "0"], ["4", "0"], ["0", "3"], ["7", "7"], ["1", "5"]]
    demon = {"kind": "round_robin"}
    scenario = _write_scenario(tmp_path, nG=5, initial={"points": points}, demon=demon, horizon=None)
    out, fresh = str(tmp_path / "t.jsonl"), str(tmp_path / "fresh.jsonl")
    assert cli.main(["run", "--scenario", scenario, "--out", out, "--horizon", "3"]) == cli.EXIT_HORIZON
    assert json.loads(Path(out).read_text().splitlines()[0])["horizon"] == 3
    assert cli.main(["run", "--scenario", scenario, "--out", out]) == cli.EXIT_OK
    assert _robogather("run", "--scenario", scenario, "--out", fresh).returncode == cli.EXIT_OK
    assert Path(out).read_bytes() == Path(fresh).read_bytes()

    capsys.readouterr()
    assert cli.main(["fuzz", "--runs", "3", "--strategies", "adversarial"]) == cli.EXIT_INPUT
    assert "adversarial" in capsys.readouterr().err
    assert cli.main(["fuzz", "--runs", "3"]) == cli.EXIT_OK
    done = _robogather("fuzz", "--runs", "3")
    assert done.returncode == cli.EXIT_OK
    assert capsys.readouterr().out == done.stdout
