"""Hostile-input contract: a mutated tessellation file ends in a typed error.

A small generated file is mutated (bounded flags flipped, a cell's ridge ids
dropped, repeated or reversed, the cells of two ridges swapped, vertices
scaled) and run through ``loads`` and every reconstruction method, and
through the command line. The only failures allowed are a ``VorogenError``
in the library and the documented exit codes 0, 3, 4 and 5 on the command
line; a raw ``IndexError``, ``TypeError`` or traceback is a bug.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vorogen.cli import main
from vorogen.errors import VorogenError
from vorogen.forward import sample_and_build
from vorogen.pipeline import METHODS, reconstruct
from vorogen.tessellation import dumps, loads

_, _T, _GT = sample_and_build(60, 3)
BASE = json.loads(dumps(_T, _GT))
N_CELLS = len(BASE["cells"])
N_RIDGES = len(BASE["ridges"])
N_VERTICES = len(BASE["vertices"])
HULL_CELL = next(i for i, c in enumerate(BASE["cells"]) if not c["bounded"])

cell_ids = st.integers(0, N_CELLS - 1)
ridge_ids = st.integers(0, N_RIDGES - 1)
mutations = st.one_of(
    st.tuples(st.just("flip_bounded"), cell_ids),
    st.tuples(st.just("drop_ridge"), cell_ids, st.integers(0, 7)),
    st.tuples(st.just("repeat_ridge"), cell_ids, st.integers(0, 7)),
    st.tuples(st.just("reverse_ridges"), cell_ids),
    st.tuples(st.just("swap_ridge_cells"), ridge_ids, ridge_ids),
    st.tuples(
        st.just("scale_vertex"),
        st.integers(-1, N_VERTICES - 1),  # -1 scales every vertex
        st.sampled_from([0.0, -1.0, 1e-9, 0.5, 2.0, 1e9]),
    ),
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
        else:
            _, v, f = op
            for i in range(len(vertices)) if v < 0 else (v,):
                vertices[i] = [f * vertices[i][0], f * vertices[i][1]]
    return doc


@given(ops=st.lists(mutations, min_size=1, max_size=3), cli_method=st.sampled_from(METHODS))
@example(ops=[("flip_bounded", HULL_CELL)], cli_method="cprime")
@example(ops=[("flip_bounded", HULL_CELL)], cli_method="anchor")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_file_ends_in_typed_error(tmp_path, ops, cli_method):
    text = json.dumps(mutate(BASE, ops))
    try:
        t, gt = loads(text)
    except VorogenError:
        return
    for method in METHODS:
        try:
            reconstruct(t, method, gt)
        except VorogenError:
            pass
    path = tmp_path / "mutated.json"
    path.write_text(text)
    assert main(["validate", "--in", str(path)]) in (0, 4)
    assert main(["reconstruct", "--in", str(path), "--method", cli_method]) in (0, 3, 4, 5)
