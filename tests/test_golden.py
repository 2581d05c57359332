"""Fixed-seed golden digests of the reconstruction's exact bits.

Each digest is the SHA-256 of float64 values packed little-endian, taken
from forward builds at n = 200 and 2000, seeds 0-4. They pin, bit for bit:
the anchor score table and the selected anchor; the sweep's generators and
trace from a patch holding the true generators (no LAPACK call and no
complex product, so the digests hold across BLAS builds and CPUs); and the
brute and cprime generators. A refactor that changes any of them changes
results.

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
    (200, 0): {"anchor": 69, "scores": "e8ab2286c4cb6b9e", "sweep_first": "f5958894843008c6", "brute": "7b2aefc6abae453b", "cprime": "9b3883acafe16c1f"},
    (200, 1): {"anchor": 31, "scores": "4e37b5e1912298a9", "sweep_first": "258c52ef52c6c95f", "brute": "54f9f82915eb0786", "cprime": "e4203956e0f6e518"},
    (200, 2): {"anchor": 35, "scores": "964e7d06da127a05", "sweep_first": "e26172fce01e72b9", "brute": "666e8070abf289ee", "cprime": "13467d0c4884396d"},
    (200, 3): {"anchor": 49, "scores": "6fdabd2f5d93433e", "sweep_first": "28ac1c6c1834716b", "brute": "e9a4b8b3bceacdd0", "cprime": "246f4cf5b9c6f394"},
    (200, 4): {"anchor": 137, "scores": "733e80df66ee51cc", "sweep_first": "56190127218ad5cf", "brute": "05e815c3401f013d", "cprime": "91e46387b17a0084"},
    (2000, 0): {"anchor": 190, "scores": "bac65ee4d23ebd7c", "sweep_first": "7a1290a03353c4a1", "brute": "26394a0911c9cd37", "cprime": "e72768b1d76c36dc"},
    (2000, 1): {"anchor": 138, "scores": "ad56c5f01bc43848", "sweep_first": "e5cf695825c1a3a5", "brute": "66fbc7fc2ed7af1b", "cprime": "9632fb10cd57a37e"},
    (2000, 2): {"anchor": 1940, "scores": "8d711ea77c1a9845", "sweep_first": "16bffa30d1ba9407", "brute": "05c2ef37f297fc42", "cprime": "6c08914591f4a1f5"},
    (2000, 3): {"anchor": 518, "scores": "8abb8e529fb0fdff", "sweep_first": "4a5435f15b5d261a", "brute": "2e2148ff6b495c67", "cprime": "8c89c11e8faf365f"},
    (2000, 4): {"anchor": 1729, "scores": "e900fceea5b66abf", "sweep_first": "23bef62d9a120948", "brute": "c37e91d91616cdec", "cprime": "67ba0141c7f8e7b6"},
}


@pytest.mark.parametrize("n,seed", CASES)
def test_golden_digests(built, n, seed):
    _, t, gt = built(n, seed)
    assert golden_row(n, seed, t, gt) == GOLDEN[(n, seed)]


if __name__ == "__main__":
    for n, seed in CASES:
        print(f"    ({n}, {seed}): {golden_row(n, seed)!r},")
