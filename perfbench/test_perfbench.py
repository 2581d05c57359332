"""Tests of the benchmark itself: small runs finish clean, checks reject wrong answers.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from vorogen.tessellation import Ridge, Tessellation  # noqa: E402

SMALL_N = 200
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_run(monkeypatch, tmp_path, name: str, trace: int, seed: int = 0) -> dict:
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(speed, "kernel", lambda: sum(range(10_000)))  # small runs stay quick
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(
            ["--workload", name, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--n", str(SMALL_N)]
        )
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_has_no_failures(monkeypatch, tmp_path, name, trace):
    pytest.importorskip("scipy")
    res = small_run(monkeypatch, tmp_path, name, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] % workloads.WORKLOADS[name].ops_per_round == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    if trace:
        assert (tmp_path / f"trace-{name}-seed0.json").is_file()
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_and_accuracy_repeat_exactly(monkeypatch, tmp_path, name, trace):
    """Everything but times and memory is the same in two runs of one seed."""
    pytest.importorskip("scipy")
    runs = [
        {
            k: v["value"]
            for k, v in small_run(monkeypatch, tmp_path, name, trace, seed=5)["metrics"].items()
            if v["unit"] not in ("s", "cells/s", "MB")
        }
        for _ in range(2)
    ]
    assert runs[0] and runs[0] == runs[1]


def test_unbuildable_diagram_seeds_are_skipped(monkeypatch, capsys):
    """A seed whose diagram the program rejects is left out of the pool."""
    w = workloads.WORKLOADS["montecarlo_1e4"]
    k = w.ops_per_round
    seeds = workloads.candidate_seeds(0, 1, k)
    real = workloads.forward.sample_and_build

    def rejecting(n, s):
        if s == seeds[1]:
            raise workloads.ConstructionError("cocircular degeneracy")
        return real(n, s)

    monkeypatch.setattr(workloads.forward, "sample_and_build", rejecting)
    assert w.prepare(0, SMALL_N) == [seeds[0], *seeds[2:k + 1]]
    assert f"diagram seed {seeds[1]} skipped" in capsys.readouterr().err


def test_run_without_sources_fails(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "baselines_1e3", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


# -- every check rejects a wrong answer ------------------------------------------


def shifted(points):
    """Every point moved by 1e-6 in x and in y."""
    return [(p[0] + 1e-6, p[1] + 1e-6) for p in points]


def swapped(points, t):
    """The points of the two cells of ridge 0, which are neighbours, exchanged."""
    a, b = t.ridges[0].cells
    out = list(points)
    out[a], out[b] = out[b], out[a]
    return out


def relabelled(t):
    """``t`` with the two cells of ridge 0 exchanged in every ridge."""
    a, b = t.ridges[0].cells
    swap = {a: b, b: a}
    ridges = [
        Ridge(cells=tuple(swap.get(c, c) for c in r.cells), v0=r.v0, v1=r.v1, ray_dir=r.ray_dir)
        for r in t.ridges
    ]
    return Tessellation(t.vertices, ridges, t.cells)


def test_montecarlo_checks_reject_wrong_answers(tmp_path):
    pytest.importorskip("scipy")
    w = workloads.WORKLOADS["montecarlo_1e4"]
    state = w.setup(w.prepare(0, SMALL_N), SMALL_N, tmp_path)
    sites, t, rep = w.op(state, 0)
    assert w.check(state, 0, (sites, t, rep)).problems == []
    for wrong in (shifted(rep.generators), swapped(rep.generators, t)):
        bad = dataclasses.replace(rep, generators=tuple(wrong))
        problems = w.check(state, 0, (sites, t, bad)).problems
        assert any("from their sites" in p for p in problems)
        assert any("not equidistant" in p for p in problems)
    problems = w.check(state, 0, (sites, relabelled(t), rep)).problems
    assert any("differ from scipy" in p for p in problems)


def rewrite(path, edit):
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


def test_cli_checks_reject_wrong_answers(tmp_path):
    w = workloads.WORKLOADS["cli_file_1e4"]
    state = w.setup(w.prepare(0, SMALL_N), SMALL_N, tmp_path)
    f = state[0]
    assert w.check(state, 0, w.op(state, 0)).problems == []

    def expect(edit_out, edit_report, words):
        res = w.op(state, 0)
        if edit_out:
            rewrite(f.out, edit_out)
        if edit_report:
            rewrite(f.report, edit_report)
        problems = w.check(state, 0, res).problems
        assert any(words in p for p in problems), problems

    t, _ = workloads.tessellation.load(f.path)

    def shift(doc):
        doc["generators"] = shifted(doc["generators"])

    def swap(doc):
        doc["generators"] = swapped(doc["generators"], t)

    def move_vertex(doc):
        doc["vertices"][0][0] += 1e-12

    def wrong_rmse(doc):
        doc["rmse"] *= 1.01

    expect(shift, None, "from their sites")
    expect(swap, None, "not equidistant")
    expect(move_vertex, None, "differs from the input")
    expect(None, wrong_rmse, "report rmse")

    res = dataclasses.replace(w.op(state, 0), validate_stdout="1 violations\n", validate_code=4)
    assert any("validate exited" in p for p in w.check(state, 0, res).problems)


def test_baseline_checks_reject_wrong_answers(tmp_path):
    w = workloads.WORKLOADS["baselines_1e3"]
    state = w.setup(w.prepare(0, SMALL_N), SMALL_N, tmp_path)
    brute, cprime = w.op(state, 0)
    assert w.check(state, 0, (brute, cprime)).problems == []
    t = state[0][1]
    for wrong in (shifted(cprime.generators), swapped(cprime.generators, t)):
        bad = dataclasses.replace(cprime, generators=tuple(wrong))
        problems = w.check(state, 0, (brute, bad)).problems
        assert problems and all(p.startswith("cprime:") for p in problems)
