"""Fixed-seed golden digests of the reconstruction's exact bits.

Each digest is the SHA-256 of float64 values packed little-endian, taken
from forward builds at n = 200 and 2000, seeds 0-4. They pin, bit for bit:
the anchor score table and the selected anchor; the sweep's generators and
trace from a patch holding the true generators, and the anchor method's
final generators, ``refine_all`` run on that sweep, with its iteration
count (no LAPACK call and no complex product or modulus, so the digests
hold across BLAS builds and CPUs); and the brute and cprime generators. A
refactor that changes any of them changes results.

``REPORTS`` pins the end-to-end path on the same builds: the bytes of
``sample_and_build``'s sites and ground truth, and per method the
generators, ``rmse``, ``max_rse``, ``depth`` and ``refine_iterations`` of
``reconstruct(t, method, gt)``.

``CORPUS`` pins the file contract the same way: the outcome of ``loads``
and ``validate`` (the error's type and message, or the full list of
violations) on about 200 documents mutated by ``test_fuzz.mutate`` with a
fixed seed, on its examples, and on one malformed document per
``ParseError`` branch of ``loads``.

Re-record with ``PYTHONPATH=src python tests/test_golden.py`` only when a
change of bits is intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

import test_fuzz
from vorogen.anchor import score_cell, select_anchor
from vorogen.baselines import brute_force_all, c_prime_all
from vorogen.errors import VorogenError
from vorogen.forward import sample_and_build
from vorogen.pipeline import METHODS, reconstruct
from vorogen.propagate import reconstruct_all, refine_all
from vorogen.solver import PatchSolution, assemble_patch
from vorogen.tessellation import loads, validate

CASES = [(n, seed) for n in (200, 2000) for seed in range(5)]


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, "<f8").tobytes()).hexdigest()[:16]


def _sweep_digests(t, gt, members) -> tuple[str, str]:
    """The sweep from the true patch generators, and its refinement."""
    patch = PatchSolution(
        members=members,
        generators=gt.generators[list(members)],
        residual=0.0,
        rank=2 * len(members),
        smin=1.0,
        smax=1.0,
    )
    known, trace = reconstruct_all(t, patch)
    n = len(t.cells)
    refined, iterations = refine_all(t, known)
    return digest(
        [*(v for c in range(n) for v in known[c]),
         *np.stack((trace.cells, trace.sources, trace.ridges), axis=1).ravel(),
         *(trace.depth[c] for c in range(n)),
         trace.reflect_calls]
    ), digest([*(v for c in range(n) for v in refined[c]), iterations])


def golden_row(n: int, seed: int, t=None, gt=None) -> dict:
    if t is None:
        _, t, gt = sample_and_build(n, seed)
    scores = [score_cell(t, c) for c in range(len(t.cells))]
    anchor = select_anchor(t)
    members = assemble_patch(t, anchor).members
    sweep_first, refined = _sweep_digests(t, gt, members)
    return {
        "anchor": anchor,
        "scores": digest(
            [(s.eligible, s.degree, s.min_edge_ratio) for s in scores]
        ),
        "sweep_first": sweep_first,
        "refined": refined,
        "brute": digest(brute_force_all(t)[0]),
        "cprime": digest(c_prime_all(t)),
    }


GOLDEN = {
    (200, 0): {"anchor": 69, "scores": "90382fdbbc0bbe2b", "sweep_first": "4c1dfe94b38d4014", "refined": "435bf70f07c41b31", "brute": "5347dce6935dacfd", "cprime": "da4e91cb6328c4a2"},
    (200, 1): {"anchor": 157, "scores": "d0c8777b77f15fe9", "sweep_first": "bcba8bca603dd91c", "refined": "f55800b1acf5016d", "brute": "36e1d1b446ef3aa1", "cprime": "1c3c6c78495f37ef"},
    (200, 2): {"anchor": 35, "scores": "5889aab50c6a117a", "sweep_first": "ae90a2d10a6d826b", "refined": "b18bc1f751896767", "brute": "ff38ca6866f6a3df", "cprime": "a10b0bfecd7a27a0"},
    (200, 3): {"anchor": 49, "scores": "248b3f99d860b6fd", "sweep_first": "2cee8aa255eb7701", "refined": "598bf22fb2b28822", "brute": "08544ebe6b2c24b8", "cprime": "a22ab54227b82ee6"},
    (200, 4): {"anchor": 27, "scores": "f3552b7702cdfde1", "sweep_first": "0438c0370364e395", "refined": "c35858ae74cf0aad", "brute": "fce98686dc07dd1d", "cprime": "4cfe767c046852b6"},
    (2000, 0): {"anchor": 1666, "scores": "1c9df4684f41cbba", "sweep_first": "6e96f5e13e17c910", "refined": "29c1ea4974f730d5", "brute": "50b32f8e968e8c37", "cprime": "8959f8cc2c0c89af"},
    (2000, 1): {"anchor": 537, "scores": "e7581cfcdcda497e", "sweep_first": "d95a99b07f437adf", "refined": "174b6df308b51d57", "brute": "528756f28c8826ad", "cprime": "7bee6425a19bf50d"},
    (2000, 2): {"anchor": 643, "scores": "da2360b870d0106b", "sweep_first": "3c499dca293f5064", "refined": "0f3fa17ad75ef376", "brute": "9af178df0eec5390", "cprime": "1a93d95f31859056"},
    (2000, 3): {"anchor": 1671, "scores": "f82f78afa47fb285", "sweep_first": "f2fb48adf614efc7", "refined": "1bbecd4cd64cc144", "brute": "4c743f2a31d76686", "cprime": "5deaae6be2d09905"},
    (2000, 4): {"anchor": 597, "scores": "cf5e13c490152c63", "sweep_first": "b67ff3c388a70b96", "refined": "efb4ef0d1909afab", "brute": "915ddbcff43e20f5", "cprime": "71b583eee6bcbee4"},
}


@pytest.mark.parametrize("n,seed", CASES)
def test_golden_digests(built, n, seed):
    _, t, gt = built(n, seed)
    assert golden_row(n, seed, t, gt) == GOLDEN[(n, seed)]


def report_row(sites, t, gt) -> dict:
    row = {"sites": digest(sites.points), "truth": digest(gt.generators)}
    for method in METHODS:
        rep = reconstruct(t, method, gt)
        row[method] = digest(
            [*np.asarray(rep.generators, float).ravel(), rep.rmse, rep.max_rse, rep.depth,
             rep.refine_iterations]
        )
    return row


REPORTS = {
    (200, 0): {"sites": "479902748a1dff36", "truth": "479902748a1dff36", "anchor": "e0c0d4fd9250c500", "brute": "14a783132c83e7dd", "cprime": "fb9b4eb018f8c79c"},
    (200, 1): {"sites": "96520372c19ba8ce", "truth": "96520372c19ba8ce", "anchor": "947d8bd57e2b1b05", "brute": "b645e09ef8fa08f5", "cprime": "1eeff2de93aa6dc6"},
    (200, 2): {"sites": "c788f31baf38a762", "truth": "c788f31baf38a762", "anchor": "30d55e977db21c2d", "brute": "8ffc15403a5a8134", "cprime": "af0f8e291f9e3eb3"},
    (200, 3): {"sites": "49f76b3fa8d0437c", "truth": "49f76b3fa8d0437c", "anchor": "de2959197d736919", "brute": "fbb8f3907592b478", "cprime": "edd7c7dc69c7dd33"},
    (200, 4): {"sites": "6e30c8ee466bbf64", "truth": "6e30c8ee466bbf64", "anchor": "f82e3799c1fefa12", "brute": "de4d78d58e07340e", "cprime": "d12822128c50d311"},
    (2000, 0): {"sites": "72f6c49a3c5df2eb", "truth": "72f6c49a3c5df2eb", "anchor": "204fd107e47fd6ba", "brute": "52e2afd005eeed47", "cprime": "b2d85b8b7cf365cb"},
    (2000, 1): {"sites": "294e629ab1891111", "truth": "294e629ab1891111", "anchor": "832ec0af5372039c", "brute": "8727cc6b7663bbe7", "cprime": "84417e2fbeb6a2d7"},
    (2000, 2): {"sites": "5c4a3977165e95ac", "truth": "5c4a3977165e95ac", "anchor": "51f0b547c1192410", "brute": "a0bc20a3d83db489", "cprime": "4e928569a799222b"},
    (2000, 3): {"sites": "7ca0e800ed88763d", "truth": "7ca0e800ed88763d", "anchor": "72fb41eaed342a7c", "brute": "a016c41276e2a032", "cprime": "187899ca2b585b2e"},
    (2000, 4): {"sites": "8869ac34dd232d0e", "truth": "8869ac34dd232d0e", "anchor": "591bba2959d33ba4", "brute": "5024adc757179dd4", "cprime": "6653c076fceeb3a4"},
}


@pytest.mark.parametrize("n,seed", CASES)
def test_report_digests(built, n, seed):
    assert report_row(*built(n, seed)) == REPORTS[(n, seed)]


def _random_op(rng: random.Random) -> tuple:
    """One mutation drawn as ``test_fuzz.mutations`` draws it."""
    f = test_fuzz
    cell, ridge = rng.randrange(f.N_CELLS), rng.randrange(f.N_RIDGES)
    vertex = rng.choice([rng.randint(-1, f.N_VERTICES), 99999])
    kind = rng.choice(
        ["flip_bounded", "drop_ridge", "repeat_ridge", "reverse_ridges", "swap_ridge_cells",
         "empty_cell", "ridge_vertex", "rename_vertex", "scale_ray", "scale_vertex"]
    )
    if kind in ("flip_bounded", "reverse_ridges", "empty_cell"):
        return (kind, cell)
    if kind in ("drop_ridge", "repeat_ridge"):
        return (kind, cell, rng.randint(0, 7))
    if kind == "swap_ridge_cells":
        return (kind, ridge, rng.randrange(f.N_RIDGES))
    if kind == "ridge_vertex":
        return (kind, ridge, rng.randint(0, 1), vertex)
    if kind == "rename_vertex":
        return (kind, rng.randrange(f.N_VERTICES), vertex)
    if kind == "scale_ray":
        return (kind, rng.choice(f.RAY_RIDGES), rng.choice([0.0, -1.0, 0.5, 1.0 + 1e-10, 1.0 + 1e-8, 2.0]))
    return (kind, rng.randint(-1, f.N_VERTICES - 1), rng.choice([0.0, -1.0, 1e-9, 0.5, 2.0, 1e9]))


_DOC = '{"version": 1, "vertices": [[0, 0], [1, 0]], "ridges": [%s], "cells": [%s]%s}'
_RIDGE = '{"cells": [0, 1], "finite": [0, 1]}'
_CELL = '{"ridges": [0], "bounded": false}'
# one document per ParseError branch of ``loads``, in the order they are tested
MALFORMED = [
    '{"version": 1, "vertices": [[0, 0',
    "[1, 2]",
    '{"version": 2, "vertices": [], "ridges": [], "cells": []}',
    '{"version": 1, "vertices": [], "cells": []}',
    '{"version": 1, "vertices": [], "ridges": {}, "cells": []}',
    '{"version": 1, "vertices": [[0, 0], [1]], "ridges": [], "cells": []}',
    '{"version": 1, "vertices": [[0, true]], "ridges": [], "cells": []}',
    '{"version": 1, "vertices": [[0, Infinity]], "ridges": [], "cells": []}',
    _DOC % ("[]", _CELL, ""),
    _DOC % ('{"cells": [0, 1.0], "finite": [0, 1]}', _CELL, ""),
    _DOC % ('{"cells": [0, 1]}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "finite": [0, 1], "ray": {}}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "finite": [0, "1"]}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "ray": {"v": 0}}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "ray": {"v": false, "dir": [0, 1]}}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "ray": {"v": 0, "dir": [0]}}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "ray": {"v": 0, "dir": [NaN, 1]}}', _CELL, ""),
    _DOC % ('{"cells": [0, 1], "ray": {"v": 0, "dir": [0.6, 0.6]}}', _CELL, ""),
    _DOC % (_RIDGE, "7", ""),
    _DOC % (_RIDGE, '{"ridges": [0, null], "bounded": false}', ""),
    _DOC % (_RIDGE, '{"ridges": [0], "bounded": 1}', ""),
    _DOC % (_RIDGE, _CELL, ', "generators": {}'),
    _DOC % (_RIDGE, _CELL, ', "generators": [[0, 0], [1, 1]]'),
    _DOC % (_RIDGE, _CELL, ', "generators": [[0, "1"]]'),
    _DOC % (_RIDGE, _CELL, ', "generators": [[-Infinity, 1]]'),
]


def corpus_documents() -> list[str]:
    rng = random.Random(8)
    ops = [[_random_op(rng) for _ in range(rng.randint(1, 3))] for _ in range(200)]
    ops += [example_ops for example_ops, _ in test_fuzz.EXAMPLES]
    return [json.dumps(test_fuzz.mutate(test_fuzz.BASE, o)) for o in ops] + MALFORMED


def outcome(text: str) -> list[str]:
    """The error ``loads`` raises, as [type, message], or ``validate``'s list."""
    try:
        t, _ = loads(text)
    except VorogenError as exc:
        return [type(exc).__name__, str(exc)]
    return validate(t)


def corpus_digest() -> str:
    records = [outcome(text) for text in corpus_documents()]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]


CORPUS = "7db35f0ec5f73fdc"


def test_file_contract_corpus():
    assert corpus_digest() == CORPUS


if __name__ == "__main__":
    for n, seed in CASES:
        print(f"    ({n}, {seed}): {golden_row(n, seed)!r},")
    for n, seed in CASES:
        print(f"    ({n}, {seed}): {report_row(*sample_and_build(n, seed))!r},")
    print(f"CORPUS = {corpus_digest()!r}")
