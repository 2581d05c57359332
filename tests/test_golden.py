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
         *(trace.candidates[c] for c in range(n)),
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
            [(s.eligible, s.degree, s.min_edge_ratio, s.max_pairwise_parallelism,
              s.centrality, s.composite) for s in scores]
        ),
        "sweep_first": sweep_first,
        "refined": refined,
        "brute": digest(brute_force_all(t)[0]),
        "cprime": digest(c_prime_all(t)),
    }


GOLDEN = {
    (200, 0): {"anchor": 69, "scores": "4d14ef2a9f6d0b04", "sweep_first": "f5958894843008c6", "refined": "71c21efcd2ad5efb", "brute": "7b2aefc6abae453b", "cprime": "57455b6e23beb69f"},
    (200, 1): {"anchor": 31, "scores": "dd69644f5c662687", "sweep_first": "258c52ef52c6c95f", "refined": "fd26561dbf74c953", "brute": "54f9f82915eb0786", "cprime": "870584b1e70f8899"},
    (200, 2): {"anchor": 35, "scores": "af17edc678000d56", "sweep_first": "e26172fce01e72b9", "refined": "29b68ab5b74e92cf", "brute": "666e8070abf289ee", "cprime": "b703755054fb5c7d"},
    (200, 3): {"anchor": 49, "scores": "6fdabd2f5d93433e", "sweep_first": "28ac1c6c1834716b", "refined": "2d2bebc829928b32", "brute": "e9a4b8b3bceacdd0", "cprime": "ec7d56ba2ba94872"},
    (200, 4): {"anchor": 137, "scores": "733e80df66ee51cc", "sweep_first": "56190127218ad5cf", "refined": "36e75b0e33dcb8a2", "brute": "05e815c3401f013d", "cprime": "3f874801a7b760d4"},
    (2000, 0): {"anchor": 190, "scores": "8be1ded567fba59c", "sweep_first": "7a1290a03353c4a1", "refined": "6f5b5a68478a88f5", "brute": "26394a0911c9cd37", "cprime": "acba6a7042295552"},
    (2000, 1): {"anchor": 138, "scores": "32b3023a84dc711c", "sweep_first": "e5cf695825c1a3a5", "refined": "ec0d127c169f9486", "brute": "66fbc7fc2ed7af1b", "cprime": "589f771088458fac"},
    (2000, 2): {"anchor": 1940, "scores": "24ff3b73d5b15bd2", "sweep_first": "16bffa30d1ba9407", "refined": "69535dbb0d2a68cd", "brute": "05c2ef37f297fc42", "cprime": "ff668243cb355419"},
    (2000, 3): {"anchor": 518, "scores": "de0d05dfab7d77d0", "sweep_first": "4a5435f15b5d261a", "refined": "72a7ee38fa46e05e", "brute": "2e2148ff6b495c67", "cprime": "1282a2806ae715e1"},
    (2000, 4): {"anchor": 1729, "scores": "d4b5a31047229b35", "sweep_first": "23bef62d9a120948", "refined": "192c0e6f268900b0", "brute": "c37e91d91616cdec", "cprime": "7dcf8910060daa66"},
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
    (200, 0): {"sites": "479902748a1dff36", "truth": "479902748a1dff36", "anchor": "0bd3bf360d35c9ca", "brute": "7b03e5933c8244cb", "cprime": "7a9d838047a1267c"},
    (200, 1): {"sites": "96520372c19ba8ce", "truth": "96520372c19ba8ce", "anchor": "081fcbd34c82429f", "brute": "e07cfa6ace8277de", "cprime": "d3792ea34e43a231"},
    (200, 2): {"sites": "c788f31baf38a762", "truth": "c788f31baf38a762", "anchor": "62ec6871511812f5", "brute": "a039e2f9737aab43", "cprime": "d6f6fdbeb3d29e36"},
    (200, 3): {"sites": "49f76b3fa8d0437c", "truth": "49f76b3fa8d0437c", "anchor": "60bc8cdfc6c6614b", "brute": "88406f50f9615e7d", "cprime": "d639da2d1492e8a7"},
    (200, 4): {"sites": "6e30c8ee466bbf64", "truth": "6e30c8ee466bbf64", "anchor": "f1d2be454af2d2bc", "brute": "643003b33efa310e", "cprime": "8d5b25b39d05d2bb"},
    (2000, 0): {"sites": "72f6c49a3c5df2eb", "truth": "72f6c49a3c5df2eb", "anchor": "04b21d14c10bd36c", "brute": "911d6c630c8f494a", "cprime": "84eb49e57df98449"},
    (2000, 1): {"sites": "294e629ab1891111", "truth": "294e629ab1891111", "anchor": "7942b91e6d7a9ce9", "brute": "d777e1efe2e7137d", "cprime": "0f977b5d6e41c9ff"},
    (2000, 2): {"sites": "5c4a3977165e95ac", "truth": "5c4a3977165e95ac", "anchor": "d00391999e25f382", "brute": "5d23af824c9c6f47", "cprime": "0f6170ebb4f14b58"},
    (2000, 3): {"sites": "7ca0e800ed88763d", "truth": "7ca0e800ed88763d", "anchor": "b13d738a22256e0a", "brute": "094d40224c25f5e3", "cprime": "b80babc9e84a1bf5"},
    (2000, 4): {"sites": "8869ac34dd232d0e", "truth": "8869ac34dd232d0e", "anchor": "28c08c1fbe269328", "brute": "74a5bdea7b69fa29", "cprime": "56147b75714cb5b1"},
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
