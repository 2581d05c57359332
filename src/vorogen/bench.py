"""Monte Carlo benchmark harness with counter-derived seeds.

Each simulation draws a fresh tessellation, reconstructs it, and scores the
result against the known generators. Per-simulation seeds come from a
documented counter scheme so any single run can be replayed in isolation,
and aggregation never depends on completion order, which makes worker
pools safe.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import VorogenError
from .forward import sample_and_build
from .pipeline import reconstruct

CSV_HEADER = "n,nsim,method,log10_mean_rmse,log10_max_rse,mean_depth,mean_propagate_ms,mean_build_ms"


@dataclass(frozen=True)
class SimResult:
    """One simulation's scores. Only the times vary between runs.

    ``report`` is the reconstruction's ``ReconstructionReport.summary()``;
    ``timings`` holds its per-stage seconds (``ReconstructionReport.timings``)
    and ``build_time`` the forward build's.
    """

    n: int
    seed: int
    report: dict
    build_time: float
    timings: dict[str, float]

    @property
    def propagate_time(self) -> float:
        """Seconds in the reflection sweep: the CSV's propagate column."""
        return self.timings["sweep"]

    def key(self) -> tuple:
        """Every deterministic fact and no time, for reproducibility comparisons."""
        return (self.n, self.seed, *sorted(self.report.items()))


@dataclass(frozen=True)
class CampaignRow:
    """Aggregate over one n: the quantities of the accuracy table plus timing.

    ``log10_max_rse`` takes the max over every cell of every simulation;
    failed simulations are excluded from all aggregates and kept in
    ``failed`` as ``(n, seed, "Type: message")``, in job order.
    """

    n: int
    nsim: int
    method: str
    log10_mean_rmse: float
    log10_max_rse: float
    mean_depth: float
    mean_propagate_ms: float
    mean_build_ms: float
    failed: tuple[tuple[int, int, str], ...]
    results: tuple[SimResult, ...]

    @property
    def failures(self) -> int:
        """How many simulations failed."""
        return len(self.failed)


def derive_seed(master: int, n: int, index: int) -> int:
    """Per-simulation seed for simulation ``index`` of size ``n``.

    Spawned from the (master, n, index) entropy triple, so individual
    simulations can be replayed without running the whole campaign.
    """
    return int(np.random.SeedSequence([master, n, index]).generate_state(1)[0])


def run_simulation(n: int, seed: int, method: str = "anchor") -> SimResult:
    """Draw one tessellation of size ``n`` and score its reconstruction."""
    if n < 10:
        raise ValueError(f"benchmark simulations need n >= 10, got {n}")
    t0 = time.perf_counter()
    _, tess, gt = sample_and_build(n, seed)
    build_time = time.perf_counter() - t0
    rep = reconstruct(tess, method, gt)
    return SimResult(n, seed, rep.summary(), build_time, rep.timings)


_Outcome = Union[SimResult, tuple]


def _run_job(job) -> _Outcome:
    n, seed, method = job
    try:
        return run_simulation(n, seed, method)
    except VorogenError as exc:
        return (n, seed, f"{type(exc).__name__}: {exc}")


def _log10(x: float) -> float:
    if math.isnan(x):
        return math.nan
    return math.log10(x) if x > 0.0 else -math.inf


def run_campaign(
    ns: Sequence[int],
    nsim: int,
    method: str = "anchor",
    workers: int = 1,
    master_seed: int = 0,
) -> list[CampaignRow]:
    """Run ``nsim`` seeded simulations per entry of ``ns`` and aggregate.

    The job list and the seeds depend only on (master_seed, ns, nsim), and
    results are collected in job order, so the output is identical for any
    ``workers`` count.
    """
    if nsim < 1:
        raise ValueError(f"nsim must be >= 1, got {nsim}")
    jobs = [
        (n, derive_seed(master_seed, n, i), method)
        for n in ns
        for i in range(nsim)
    ]
    workers = min(workers, len(jobs))  # a forked pool starts every worker at once
    if workers <= 1:
        outcomes = [_run_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(jobs) // (4 * workers))
            outcomes = list(pool.map(_run_job, jobs, chunksize=chunk))
    rows: list[CampaignRow] = []
    for i, n in enumerate(ns):
        batch = outcomes[i * nsim : (i + 1) * nsim]
        good = [r for r in batch if isinstance(r, SimResult)]
        if good:
            mean_rmse = sum(r.report["rmse"] for r in good) / len(good)
            max_rse = max(r.report["max_rse"] for r in good)
            mean_depth = sum(r.report["depth"] for r in good) / len(good)
            mean_prop_ms = 1e3 * sum(r.propagate_time for r in good) / len(good)
            mean_build_ms = 1e3 * sum(r.build_time for r in good) / len(good)
            if method != "anchor":  # brute and cprime run no reported sweep: NaN, not 0
                mean_depth = mean_prop_ms = math.nan
        else:
            mean_rmse = max_rse = mean_depth = mean_prop_ms = mean_build_ms = math.nan
        rows.append(
            CampaignRow(
                n=n,
                nsim=nsim,
                method=method,
                log10_mean_rmse=_log10(mean_rmse),
                log10_max_rse=_log10(max_rse),
                mean_depth=mean_depth,
                mean_propagate_ms=mean_prop_ms,
                mean_build_ms=mean_build_ms,
                failed=tuple(r for r in batch if not isinstance(r, SimResult)),
                results=tuple(good),
            )
        )
    return rows


def format_row(row: CampaignRow) -> str:
    vals = (row.log10_mean_rmse, row.log10_max_rse, row.mean_depth, row.mean_propagate_ms,
            row.mean_build_ms)
    nums = ",".join(format(v, ".6g") for v in vals)
    return f"{row.n},{row.nsim},{row.method},{nums}"


def export_csv(rows: Sequence[CampaignRow], path) -> None:
    """Write the header and one CSV line per campaign row (6 significant
    digits), replacing any existing file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")
