"""Hostile-input contract: a mutated tessellation file ends in a typed error.

A small generated file is mutated (bounded flags flipped, a cell's ridge ids
dropped, repeated, reversed or all removed, the cells of two ridges swapped,
a ridge's vertex id changed, a vertex id renamed in every ridge, a ray's
direction scaled, vertices scaled, one number set, for example to an id no
machine integer holds) and run through ``loads`` and every reconstruction
method, and through the command line. The only failures
allowed are a ``VorogenError`` in the library and the documented exit codes
0, 3, 4 and 5 on the command line; a raw ``IndexError``, ``TypeError`` or
traceback is a bug.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vorogen.cli import main
from vorogen.errors import InconsistentSystemError, ParseError, VorogenError
from vorogen.pipeline import METHODS, reconstruct
from vorogen.tessellation import loads, validate

# ``dumps(*sample_and_build(60, 3)[1:])`` as the incremental triangulation
# numbered its vertices, frozen so that ``test_golden.CORPUS`` and the
# ``@example`` rows below keep the vertex ids they name
BASE = json.loads((Path(__file__).parent / "fuzz_base.json").read_text())
N_CELLS = len(BASE["cells"])
N_RIDGES = len(BASE["ridges"])
N_VERTICES = len(BASE["vertices"])
HULL_CELL = next(i for i, c in enumerate(BASE["cells"]) if not c["bounded"])
RAY_RIDGES = [i for i, r in enumerate(BASE["ridges"]) if "ray" in r]
FINITE_RIDGE = next(i for i, r in enumerate(BASE["ridges"]) if "finite" in r)
# numbers no float holds, each in a field of its own
FLOAT_OVERFLOWS = [
    ("set", path, 10**400)
    for path in (("vertices", 0, 0), ("ridges", RAY_RIDGES[0], "ray", "dir", 1), ("generators", 0, 1))
]
# ids beyond int32, int64 and both
ID_OVERFLOWS = [
    ("set", path, value)
    for path in (("ridges", 0, "cells", 1), ("ridges", FINITE_RIDGE, "finite", 0), ("cells", 0, "ridges", 0))
    for value in (2**31, 2**63, 10**30)
]
# the vertex shared by the first two ridges of the first bounded cell
_FIRST, _SECOND = next(c for c in BASE["cells"] if c["bounded"])["ridges"][:2]
(SHARED_VERTEX,) = set(BASE["ridges"][_FIRST]["finite"]) & set(BASE["ridges"][_SECOND]["finite"])

cell_ids = st.integers(0, N_CELLS - 1)
ridge_ids = st.integers(0, N_RIDGES - 1)
# in range, just out of range at either end, or far out
any_vertex_ids = st.one_of(st.integers(-1, N_VERTICES), st.just(99999))
mutations = st.one_of(
    st.tuples(st.just("flip_bounded"), cell_ids),
    st.tuples(st.just("drop_ridge"), cell_ids, st.integers(0, 7)),
    st.tuples(st.just("repeat_ridge"), cell_ids, st.integers(0, 7)),
    st.tuples(st.just("reverse_ridges"), cell_ids),
    st.tuples(st.just("swap_ridge_cells"), ridge_ids, ridge_ids),
    st.tuples(st.just("empty_cell"), cell_ids),
    st.tuples(st.just("ridge_vertex"), ridge_ids, st.integers(0, 1), any_vertex_ids),
    st.tuples(st.just("rename_vertex"), st.integers(0, N_VERTICES - 1), any_vertex_ids),
    st.tuples(
        st.just("scale_ray"),
        st.sampled_from(RAY_RIDGES),
        st.sampled_from([0.0, -1.0, 0.5, 1.0 + 1e-10, 1.0 + 1e-8, 2.0]),
    ),
    st.tuples(
        st.just("scale_vertex"),
        st.integers(-1, N_VERTICES - 1),  # -1 scales every vertex
        st.sampled_from([0.0, -1.0, 1e-9, 0.5, 2.0, 1e9]),
    ),
    st.sampled_from(FLOAT_OVERFLOWS + ID_OVERFLOWS),
)


def mutate(doc: dict, ops) -> dict:
    doc = json.loads(json.dumps(doc))
    cells, ridges, vertices = doc["cells"], doc["ridges"], doc["vertices"]
    for op in ops:
        kind = op[0]
        if kind == "flip_bounded":
            cells[op[1]]["bounded"] = not cells[op[1]]["bounded"]
        elif kind in ("drop_ridge", "repeat_ridge"):
            rids = cells[op[1]]["ridges"]
            k = op[2] % len(rids) if rids else 0
            if kind == "drop_ridge" and rids:
                del rids[k]
            elif rids:
                rids.insert(k, rids[k])
        elif kind == "reverse_ridges":
            cells[op[1]]["ridges"].reverse()
        elif kind == "swap_ridge_cells":
            a, b = ridges[op[1]], ridges[op[2]]
            a["cells"], b["cells"] = b["cells"], a["cells"]
        elif kind == "empty_cell":
            cells[op[1]]["ridges"] = []
        elif kind == "ridge_vertex":
            _, r, end, v = op
            if "finite" in ridges[r]:
                ridges[r]["finite"][end] = v
            else:
                ridges[r]["ray"]["v"] = v
        elif kind == "rename_vertex":
            _, old, new = op
            for r in ridges:
                if "finite" in r:
                    r["finite"] = [new if w == old else w for w in r["finite"]]
                elif r["ray"]["v"] == old:
                    r["ray"]["v"] = new
        elif kind == "set":
            *path, last = op[1]
            field = doc
            for key in path:
                field = field[key]
            field[last] = op[2]
        elif kind == "scale_ray":
            ray = ridges[op[1]]["ray"]
            ray["dir"] = [op[2] * ray["dir"][0], op[2] * ray["dir"][1]]
        else:
            _, v, f = op
            for i in range(len(vertices)) if v < 0 else (v,):
                vertices[i] = [f * vertices[i][0], f * vertices[i][1]]
    return doc


# Tessellation.arrays' wording of an id or ray fault, and validate's
ARRAYS_WORDING = [
    (r"(ridge \d+) references (cell|vertex) -?\d+; there are \d+ \w+", r"\1 references an out-of-range \2"),
    (r"(cell \d+) references ridge (-?\d+); there are \d+ ridges", r"\1 references out-of-range ridge \2"),
    (r"ray (ridge \d+) has direction .*, not a unit vector", r"\1 ray direction is not unit length"),
]


def validate_wording(message: str) -> str:
    """``validate``'s message for the fault ``Tessellation.arrays`` raised
    with ``message``; the two share the wording of every other fault."""
    for pattern, wording in ARRAYS_WORDING:
        match = re.fullmatch(pattern, message)
        if match:
            return match.expand(wording)
    return message


# (ops, cli_method) pairs that every run tries first
EXAMPLES = [
    ([("flip_bounded", HULL_CELL)], "cprime"),
    ([("flip_bounded", HULL_CELL)], "anchor"),
    ([("rename_vertex", SHARED_VERTEX, 99999)], "anchor"),
    ([("scale_ray", RAY_RIDGES[0], 1.0 + 1e-10)], "brute"),
    *(([op], "anchor") for op in FLOAT_OVERFLOWS + ID_OVERFLOWS),
]


def with_examples(test):
    for ops, cli_method in reversed(EXAMPLES):
        test = example(ops=ops, cli_method=cli_method)(test)
    return test


@given(ops=st.lists(mutations, min_size=1, max_size=3), cli_method=st.sampled_from(METHODS))
@with_examples
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_file_ends_in_typed_error(tmp_path, ops, cli_method):
    text = json.dumps(mutate(BASE, ops))
    try:
        t, gt = loads(text)
    except VorogenError:
        return
    # every fault Tessellation.arrays refuses is one validate lists, so a
    # file that validates clean builds its arrays
    listed = validate(t)
    try:
        t.arrays
    except VorogenError as e:
        assert validate_wording(str(e)) in listed
    for method in METHODS:
        try:
            reconstruct(t, method, gt)
        except VorogenError:
            pass
    path = tmp_path / "mutated.json"
    path.write_text(text)
    assert main(["validate", "--in", str(path)]) in (0, 4)
    assert main(["reconstruct", "--in", str(path), "--method", cli_method]) in (0, 3, 4, 5)


@pytest.mark.parametrize("op", FLOAT_OVERFLOWS)
def test_number_beyond_float_range_is_a_parse_error(tmp_path, op):
    text = json.dumps(mutate(BASE, [op]))
    with pytest.raises(ParseError, match="must be finite"):
        loads(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["validate", "--in", str(path)]) == 5
    assert main(["reconstruct", "--in", str(path)]) == 5


@pytest.mark.parametrize("op", [("scale_vertex", -1, 1e200), ("set", ("generators", 0, 1), 1e200)])
def test_coordinate_whose_square_overflows_is_a_parse_error(tmp_path, op):
    text = json.dumps(mutate(BASE, [op]))
    with pytest.raises(ParseError, match=re.escape("must be at most 2**500")):
        loads(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["validate", "--in", str(path)]) == 5
    assert main(["reconstruct", "--in", str(path)]) == 5


def test_large_coordinates_within_the_bound_reconstruct():
    t, _ = loads(json.dumps(mutate(BASE, [("scale_vertex", -1, 1e140)])))
    assert validate(t) == []
    for method in METHODS:
        reconstruct(t, method)


def scaled(f: float) -> dict:
    """BASE with its vertices and generators scaled by ``f``."""
    doc = mutate(BASE, [("scale_vertex", -1, f)])
    doc["generators"] = [[f * x, f * y] for x, y in doc["generators"]]
    return doc


def test_small_coordinates_within_the_bound_reconstruct():
    """A power-of-two scale above the extent bound keeps every relative error."""
    t, gt = loads(json.dumps(BASE))
    small, small_gt = loads(json.dumps(scaled(2.0**-300)))
    assert validate(small) == []
    for method in METHODS:
        want, got = reconstruct(t, method, gt), reconstruct(small, method, small_gt)
        assert got.rmse / 2.0**-300 == pytest.approx(want.rmse, rel=1e-6)
        assert got.max_rse / 2.0**-300 == pytest.approx(want.max_rse, rel=1e-6)
        assert got.refine_iterations == want.refine_iterations


def test_extent_below_the_bound_is_inconsistent(tmp_path):
    """Below 2**-400 the squared errors would underflow: such a file loads,
    and ``validate``, ``arrays`` and the CLI refuse it (exit 4)."""
    text = json.dumps(scaled(2.0**-450))
    t, _ = loads(text)
    (message,) = validate(t)
    assert re.fullmatch(r"vertices span \S+, below 2\*\*-400", message)
    with pytest.raises(InconsistentSystemError, match=re.escape(message)):
        t.arrays
    path = tmp_path / "tiny.json"
    path.write_text(text)
    assert main(["validate", "--in", str(path)]) == 4
    assert main(["reconstruct", "--in", str(path)]) == 4


@pytest.mark.parametrize("op", ID_OVERFLOWS)
def test_id_beyond_machine_integers_is_inconsistent(tmp_path, op):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(mutate(BASE, [op])))
    assert main(["validate", "--in", str(path)]) == 4
    assert main(["reconstruct", "--in", str(path)]) == 4
