"""Fixed-seed golden digests of the reconstruction's exact bits.

Each digest is the SHA-256 of float64 values packed little-endian, taken
from forward builds at n = 200 and 2000, seeds 0-4. They pin, bit for bit:
the anchor score table and the selected anchor; the sweep's generators and
trace from a patch holding the true generators (no LAPACK call, so the
digests hold across BLAS builds); and the brute and cprime generators. A refactor that changes any of them changes results.

Re-record with ``PYTHONPATH=src python tests/test_golden.py`` only when a
change of bits is intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from vorogen.anchor import score_cell, select_anchor
from vorogen.baselines import brute_force_all, c_prime_all
from vorogen.forward import sample_and_build
from vorogen.propagate import reconstruct_all
from vorogen.solver import PatchSolution, assemble_patch

CASES = [(n, seed) for n in (200, 2000) for seed in range(5)]


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, "<f8").tobytes()).hexdigest()[:16]


def _sweep_digest(t, gt, members) -> str:
    patch = PatchSolution(
        members=members,
        generators={c: gt.generators[c] for c in members},
        residual=0.0,
        rank=2 * len(members),
        smin=1.0,
        smax=1.0,
    )
    known, trace = reconstruct_all(t, patch)
    n = len(t.cells)
    return digest(
        [*(v for c in range(n) for v in known[c]),
         *(v for step in trace.order for v in step),
         *(trace.depth[c] for c in range(n)),
         *(trace.candidates.get(c, 0) for c in range(n)),
         trace.reflect_calls]
    )


def golden_row(n: int, seed: int, t=None, gt=None) -> dict:
    if t is None:
        _, t, gt = sample_and_build(n, seed)
    scores = [score_cell(t, c) for c in range(len(t.cells))]
    anchor = select_anchor(t)
    members = assemble_patch(t, anchor).members
    return {
        "anchor": anchor,
        "scores": digest(
            [(s.eligible, s.degree, s.min_edge_ratio, s.max_pairwise_parallelism,
              s.centrality, s.composite) for s in scores]
        ),
        "sweep_first": _sweep_digest(t, gt, members),
        "brute": digest([p for _, p, _ in brute_force_all(t)]),
        "cprime": digest([p for _, p in c_prime_all(t)]),
    }


GOLDEN = {
    (200, 0): {"anchor": 69, "scores": "e8ab2286c4cb6b9e", "sweep_first": "92b39f3571e8bd63", "brute": "62c0fa71afa84951", "cprime": "614fe166838a028d"},
    (200, 1): {"anchor": 31, "scores": "4e37b5e1912298a9", "sweep_first": "4c0d2d3603ed1414", "brute": "7913e4d1b99b44b6", "cprime": "e59ad023e6fa1237"},
    (200, 2): {"anchor": 35, "scores": "964e7d06da127a05", "sweep_first": "9bad9cbe7db2f034", "brute": "4a616a6fba754331", "cprime": "9bcb071e498ab67b"},
    (200, 3): {"anchor": 49, "scores": "6fdabd2f5d93433e", "sweep_first": "a8310147253f3a95", "brute": "74bbedf0d2ec8763", "cprime": "7f6a8f18954ba7b8"},
    (200, 4): {"anchor": 137, "scores": "733e80df66ee51cc", "sweep_first": "604f5407fb269745", "brute": "b040a34bc71fceed", "cprime": "c6cc81f71fd72de1"},
    (2000, 0): {"anchor": 190, "scores": "bac65ee4d23ebd7c", "sweep_first": "ecc9b3659cafde12", "brute": "a64c8159bc1ead89", "cprime": "a6f6111c7bdbb647"},
    (2000, 1): {"anchor": 138, "scores": "ad56c5f01bc43848", "sweep_first": "bd37d51db3003c9f", "brute": "b2f57b1c080a16cc", "cprime": "afc13a97385a4b77"},
    (2000, 2): {"anchor": 1940, "scores": "8d711ea77c1a9845", "sweep_first": "8e120cc1cf8991a7", "brute": "94b285ea78cd1f82", "cprime": "19bd79db95b70505"},
    (2000, 3): {"anchor": 518, "scores": "8abb8e529fb0fdff", "sweep_first": "20d99cee00508904", "brute": "f611b30ac8a975b3", "cprime": "1b59711072d29e2b"},
    (2000, 4): {"anchor": 1729, "scores": "e900fceea5b66abf", "sweep_first": "8aae8b4cacf04ff4", "brute": "a76e597709a14b52", "cprime": "29c3481cc1584aed"},
}


@pytest.mark.parametrize("n,seed", CASES)
def test_golden_digests(built, n, seed):
    _, t, gt = built(n, seed)
    assert golden_row(n, seed, t, gt) == GOLDEN[(n, seed)]


if __name__ == "__main__":
    for n, seed in CASES:
        print(f"    ({n}, {seed}): {golden_row(n, seed)!r},")
