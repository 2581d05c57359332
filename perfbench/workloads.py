"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

A workload's inputs are a pool of ``ops_per_round`` diagrams drawn from the
run's seed; one round runs one operation on each of them, in order.
``prepare`` (untimed, once) draws the pool's diagram seeds and ``setup``
(timed, several times) builds the inputs from them. Every
round repeats the same inputs, so accuracy figures taken from the first
round repeat exactly for a given seed, whatever the run's length.

The program is called through module attributes (``forward.sample_and_build``,
``pipeline.reconstruct``, ``cli.main``) so that a traced run sees the calls.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from vorogen import cli, forward, pipeline, tessellation
from vorogen.errors import ConstructionError


@dataclass
class Checked:
    """Outcome of checking one operation's outputs."""

    problems: list[str]
    errors: list[np.ndarray]  # per reconstructed diagram: |generator - site|
    ridges: int  # ridges of the operation's diagram


def candidate_seeds(seed: int, salt: int, count: int) -> list[int]:
    """Diagram seeds drawn from the run's seed, distinct per workload: enough
    for ``count`` diagrams that build."""
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(4 * count)]


def buildable(seeds: list[int], count: int, n: int):
    """Yield (diagram seed, sites, tessellation, ground truth) for the first
    ``count`` of ``seeds`` whose diagrams the program builds, one at a time,
    so that a caller that keeps only part of each holds one diagram at once.

    ``forward.sample_and_build`` rejects some valid samples as cocircular
    (3 of about 230 diagram seeds at n = 10^4, half of them at 10^5; see the
    FOUND line on ``build_voronoi`` in CHANGES.md). Such a seed is skipped, with a note on
    standard error, so that no operation fails on some run seeds only.
    """
    built = 0
    for s in seeds:
        try:
            diagram = forward.sample_and_build(n, s)
        except ConstructionError as exc:
            print(f"diagram seed {s} skipped: {exc}", file=sys.stderr)
            continue
        yield (s, *diagram)
        built += 1
        if built == count:
            return
    raise RuntimeError(f"only {built} of {len(seeds)} diagram seeds build at n = {n}")


def tessellation_arrays(t):
    """(vertices, ridge cell pairs, ridge end vertices) of a Tessellation."""
    vertices = np.array(t.vertices, float).reshape(-1, 2)
    cells = np.array([r.cells for r in t.ridges], np.intp).reshape(-1, 2)
    ends = np.array([(r.v0, -1 if r.v1 is None else r.v1) for r in t.ridges], np.intp)
    return vertices, cells, ends.reshape(-1, 2)


class MonteCarlo:
    """One operation is one paper simulation: sample, build, reconstruct."""

    name = "montecarlo_1e4"
    n = 10_000
    ops_per_round = 6

    def cells_per_op(self, n: int) -> int:
        return n

    def prepare(self, seed: int, n: int) -> list[int]:
        # the operation builds the diagrams, so they are tried here, untimed
        seeds = candidate_seeds(seed, 1, self.ops_per_round)
        return [d[0] for d in buildable(seeds, self.ops_per_round, n)]

    def setup(self, seeds: list[int], n: int, workdir: Path):
        return {"n": n, "seeds": seeds}

    def op(self, state, i: int):
        sites, t, _ = forward.sample_and_build(state["n"], state["seeds"][i])
        return sites, t, pipeline.reconstruct(t, "anchor")

    def check(self, state, i: int, out) -> Checked:
        sites, t, rep = out
        s = np.array(sites.points, float)
        g = np.array(rep.generators, float)
        vertices, cells, ends = tessellation_arrays(t)
        problems = (
            checks.ridges_match_scipy(s, cells)
            + checks.near_sites(g, s, checks.PAPER_WORST)
            + checks.bisectors(vertices, cells, ends, g)
        )
        return Checked(problems, [checks.site_errors(g, s)], len(cells))


@dataclass
class CliInput:
    path: Path
    out: Path
    report: Path
    sites: np.ndarray


@dataclass
class CliResult:
    validate_code: int
    validate_stdout: str
    reconstruct_code: int
    stderr: str


class CliFile:
    """One operation is what a user runs on a stored file: validate, reconstruct."""

    name = "cli_file_1e4"
    n = 10_000
    ops_per_round = 2

    def cells_per_op(self, n: int) -> int:
        return n

    def prepare(self, seed: int, n: int) -> list[int]:
        return candidate_seeds(seed, 2, self.ops_per_round)

    def setup(self, seeds: list[int], n: int, workdir: Path):
        inputs = []
        for i, (_, sites, t, gt) in enumerate(buildable(seeds, self.ops_per_round, n)):
            path = workdir / f"in-{i}.json"
            tessellation.save(t, path, gt)
            inputs.append(
                CliInput(path, workdir / f"out-{i}.json", workdir / f"report-{i}.json",
                         np.array(sites.points, float))
            )
        return inputs

    def op(self, state, i: int) -> CliResult:
        f = state[i]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            with redirect_stdout(out):
                validate_code = cli.main(["validate", "--in", str(f.path)])
            with redirect_stdout(io.StringIO()):
                reconstruct_code = cli.main(
                    ["reconstruct", "--in", str(f.path), "--out", str(f.out), "--report", str(f.report)]
                )
        return CliResult(validate_code, out.getvalue(), reconstruct_code, err.getvalue())

    def check(self, state, i: int, res: CliResult) -> Checked:
        f = state[i]
        doc_in = checks.read_doc(f.path)
        problems = []
        if res.validate_code != 0 or res.validate_stdout.splitlines() != ["ok"]:
            problems.append(f"validate exited {res.validate_code}: {res.validate_stdout!r}")
        if res.reconstruct_code != 0:
            problems.append(f"reconstruct exited {res.reconstruct_code}: {res.stderr!r}")
            return Checked(problems, [], len(doc_in["ridges"]))
        doc = checks.read_doc(f.out)
        os.unlink(f.out)
        g = np.array(doc.get("generators", ()), float)
        errors = checks.site_errors(g, f.sites)
        vertices, cells, ends = checks.doc_arrays(doc)
        problems += (
            checks.same_geometry(doc_in, doc)
            + checks.near_sites(g, f.sites, checks.PAPER_WORST)
            + checks.bisectors(vertices, cells, ends, g)
            + checks.report_rmse(f.report, checks.rmse(errors))
        )
        os.unlink(f.report)
        return Checked(problems, [errors], len(cells))


class Baselines:
    """One operation runs both reference methods on one 10^3-cell diagram."""

    name = "baselines_1e3"
    n = 1_000
    ops_per_round = 16

    def cells_per_op(self, n: int) -> int:
        return 2 * n  # every cell, once per method

    def prepare(self, seed: int, n: int) -> list[int]:
        return candidate_seeds(seed, 3, self.ops_per_round)

    def setup(self, seeds: list[int], n: int, workdir: Path):
        return [
            (np.array(sites.points, float), t)
            for _, sites, t, _ in buildable(seeds, self.ops_per_round, n)
        ]

    def op(self, state, i: int):
        t = state[i][1]
        return pipeline.reconstruct(t, "brute"), pipeline.reconstruct(t, "cprime")

    def check(self, state, i: int, out) -> Checked:
        sites, t = state[i]
        problems, errors = [], []
        for rep in out:
            g = np.array(rep.generators, float)
            problems += [f"{rep.method}: {p}" for p in checks.near_sites(g, sites, checks.BASELINE_WORST)]
            errors.append(checks.site_errors(g, sites))
        return Checked(problems, errors, len(t.ridges))


WORKLOADS = {w.name: w for w in (MonteCarlo(), CliFile(), Baselines())}
