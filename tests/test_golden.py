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
    (200, 0): {"anchor": 69, "scores": "0ab0a70ab6d2848c", "sweep_first": "a209ed8dc7068d53", "refined": "8c669633abbab81f", "brute": "5e706d7a8062fc87", "cprime": "2cc18df718b937cd"},
    (200, 1): {"anchor": 157, "scores": "3fe8b4046668983b", "sweep_first": "6c66a8bea2b03fe7", "refined": "617042b816613f79", "brute": "128efb2d3944c912", "cprime": "3818c868e81f9e94"},
    (200, 2): {"anchor": 35, "scores": "b94580321d42b1f4", "sweep_first": "ac28c822d1c11359", "refined": "b39673f548ed228c", "brute": "3b9624d1e0df36d6", "cprime": "2899bc8293dc25be"},
    (200, 3): {"anchor": 49, "scores": "ad863f6c2b04a226", "sweep_first": "5272f492d9344c7c", "refined": "768ca76fe37eb0bd", "brute": "3cbc750ba1c2932c", "cprime": "f2fae93cba6aaa9f"},
    (200, 4): {"anchor": 27, "scores": "ad192db0bdd8a126", "sweep_first": "23de8714d20688fa", "refined": "ac4d50d0442769df", "brute": "c5a8d03b08894a64", "cprime": "25d964a10ba6d992"},
    (2000, 0): {"anchor": 1666, "scores": "f2c629e2bb8d00c3", "sweep_first": "0144a145458ca887", "refined": "59537c509bbdd389", "brute": "415aa786a1068e46", "cprime": "0545f55c194204fc"},
    (2000, 1): {"anchor": 537, "scores": "d14f4e8f4442a9a2", "sweep_first": "3c9f1edfca217e97", "refined": "c5d9bc02775bfc79", "brute": "f773ae09c526ca08", "cprime": "088b301e84dc8657"},
    (2000, 2): {"anchor": 643, "scores": "95360e7fbcb2ec4a", "sweep_first": "7cb9964b15cfca11", "refined": "2e4bb3ef030060e1", "brute": "17fb0248e44e0584", "cprime": "b04451801bdce768"},
    (2000, 3): {"anchor": 1671, "scores": "b1016e9195e05a28", "sweep_first": "c90fc344201dc3a1", "refined": "2f7273c23ed38069", "brute": "6a454adb6538acd0", "cprime": "1105a00612fd5653"},
    (2000, 4): {"anchor": 597, "scores": "d11a488e24503768", "sweep_first": "45aaa506d92639cc", "refined": "50fe612579394fbe", "brute": "6d0057880c62a2af", "cprime": "2a5db18149d51892"},
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
    (200, 0): {"sites": "479902748a1dff36", "truth": "479902748a1dff36", "anchor": "84c2aea60494ad1f", "brute": "d2bc7dc0c5574161", "cprime": "c47b5735cf4d7aad"},
    (200, 1): {"sites": "96520372c19ba8ce", "truth": "96520372c19ba8ce", "anchor": "c7a3ec7b09886d92", "brute": "ea37c8615db8eda0", "cprime": "86a5397302bd1f78"},
    (200, 2): {"sites": "c788f31baf38a762", "truth": "c788f31baf38a762", "anchor": "654377c7face57bf", "brute": "abd44e1912a4a2dc", "cprime": "9ac7aa8a8cbde722"},
    (200, 3): {"sites": "49f76b3fa8d0437c", "truth": "49f76b3fa8d0437c", "anchor": "bc36569b110fa76e", "brute": "db96ac3c54c1735c", "cprime": "96f1efb1b8667980"},
    (200, 4): {"sites": "6e30c8ee466bbf64", "truth": "6e30c8ee466bbf64", "anchor": "cc581b5fc8c5ec3b", "brute": "7e69511bb6155926", "cprime": "9f8216c096e8fc44"},
    (2000, 0): {"sites": "72f6c49a3c5df2eb", "truth": "72f6c49a3c5df2eb", "anchor": "9ed0bed5b130e1b6", "brute": "4c1f7e299d6160b9", "cprime": "9a762d4ac11385b7"},
    (2000, 1): {"sites": "294e629ab1891111", "truth": "294e629ab1891111", "anchor": "a8d59339dec8a628", "brute": "3991dfcb563143d6", "cprime": "7e45b15d446e36fc"},
    (2000, 2): {"sites": "5c4a3977165e95ac", "truth": "5c4a3977165e95ac", "anchor": "2661dbccafed6f90", "brute": "96a1c738dab89118", "cprime": "435b50dfca159ea1"},
    (2000, 3): {"sites": "7ca0e800ed88763d", "truth": "7ca0e800ed88763d", "anchor": "acdd3ab578a945f9", "brute": "ec49e7051545af2e", "cprime": "c4e452fc9ec6b26d"},
    (2000, 4): {"sites": "8869ac34dd232d0e", "truth": "8869ac34dd232d0e", "anchor": "5b085c848fc8def9", "brute": "7ce6bb3b255a2b6d", "cprime": "ba29c423e9dc0d55"},
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
