"""Benchmark harness: seed derivation, aggregation, worker determinism, CSV.

Timing fields are wall clock and never compared; everything else must be
bit-identical across repeats and worker counts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from vorogen import bench
from vorogen.bench import (
    CSV_HEADER,
    CampaignRow,
    derive_seed,
    export_csv,
    format_row,
    run_campaign,
    run_simulation,
)
from vorogen.errors import NoEligibleAnchorError
from vorogen.forward import SiteSample, build_voronoi, sample_and_build
from vorogen.geom import Point2
from vorogen.pipeline import reconstruct
from vorogen.tessellation import GroundTruth


# -------------------------------------------------------------------- seeds


def test_derive_seed_is_deterministic():
    assert derive_seed(0, 100, 7) == derive_seed(0, 100, 7)


def test_derive_seed_separates_coordinates():
    seeds = {
        derive_seed(m, n, i)
        for m in (0, 1)
        for n in (10, 100)
        for i in range(5)
    }
    assert len(seeds) == 20
    assert all(s >= 0 for s in seeds)


# --------------------------------------------------------------- simulation


def test_run_simulation_scores_one_draw():
    r = run_simulation(10, seed=1)
    assert (r.n, r.seed, r.report["method"]) == (10, 1, "anchor")
    assert 0.0 <= r.report["rmse"] <= r.report["max_rse"] < 1e-9
    assert r.report["rmse"] < 1e-11
    assert r.report["depth"] >= 1
    assert r.report["residual"] < 1e-9
    assert r.build_time >= 0.0


def test_run_simulation_is_reproducible():
    assert run_simulation(40, seed=9).key() == run_simulation(40, seed=9).key()


@pytest.mark.parametrize("method", ["anchor", "brute", "cprime"])
def test_run_simulation_reports_the_summary(method):
    r = run_simulation(40, 9, method)
    _, t, gt = sample_and_build(40, 9)
    assert r.report == reconstruct(t, method, gt).summary()


def test_simulation_key_holds_no_time():
    r = run_simulation(40, seed=9)
    assert dataclasses.replace(r, timings={}, build_time=0.0).key() == r.key()


def test_run_simulation_rejects_tiny_n():
    with pytest.raises(ValueError, match="n >= 10"):
        run_simulation(9, seed=0)


def test_run_simulation_baseline_methods():
    assert run_simulation(20, seed=2, method="brute").report["rmse"] < 1e-9
    assert run_simulation(20, seed=2, method="cprime").report["rmse"] < 1e-6


# ----------------------------------------------------------------- campaign


def test_campaign_aggregates_accuracy():
    rows = run_campaign(ns=(10, 50, 100), nsim=30, master_seed=0)
    assert [row.n for row in rows] == [10, 50, 100]
    for row in rows:
        assert row.nsim == 30
        assert row.method == "anchor"
        assert row.failures == 0
        assert len(row.results) == 30
        assert row.log10_mean_rmse <= -11.0
        assert row.log10_max_rse <= -6.0
        assert row.mean_depth > 0.0
        # the build column is averaged like the sweep's
        assert row.mean_build_ms == 1e3 * sum(r.build_time for r in row.results) / 30
        assert row.mean_build_ms > 0.0


def test_campaign_of_one_matches_single_simulation():
    rows = run_campaign(ns=(20,), nsim=1, master_seed=3)
    (row,) = rows
    single = run_simulation(20, derive_seed(3, 20, 0))
    assert row.results[0].key() == single.key()
    assert row.log10_mean_rmse == math.log10(single.report["rmse"])
    assert row.mean_depth == float(single.report["depth"])


@pytest.mark.parametrize("method", ["brute", "cprime"])
def test_campaign_leaves_the_sweep_columns_empty_for_methods_without_one(method, tmp_path):
    """brute and cprime run no reported sweep: NaN in its two columns, not 0."""
    (row,) = run_campaign(ns=(30,), nsim=2, method=method, master_seed=0)
    assert row.failures == 0 and row.log10_mean_rmse < -10.0 and row.mean_build_ms > 0.0
    assert math.isnan(row.mean_depth) and math.isnan(row.mean_propagate_ms)
    export_csv([row], tmp_path / "c.csv")
    fields = (tmp_path / "c.csv").read_text().splitlines()[1].split(",")
    assert fields[5:7] == ["nan", "nan"]


def test_campaign_rejects_empty_nsim():
    with pytest.raises(ValueError, match="nsim"):
        run_campaign(ns=(20,), nsim=0)


def test_campaign_worker_count_does_not_change_results():
    kw = dict(ns=(10, 30), nsim=6, master_seed=1)
    seq = run_campaign(workers=1, **kw)
    par = run_campaign(workers=2, **kw)
    for a, b in zip(seq, par):
        assert [r.key() for r in a.results] == [r.key() for r in b.results]
        assert a.log10_mean_rmse == b.log10_mean_rmse
        assert a.log10_max_rse == b.log10_max_rse
        assert a.failures == b.failures


def test_campaign_pool_is_no_larger_than_the_job_list(monkeypatch):
    sizes = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    (row,) = run_campaign(ns=(20,), nsim=2, workers=8, master_seed=0)
    assert sizes == [2]
    assert len(row.results) + row.failures == 2


def test_campaign_counts_failures(monkeypatch):
    bad_seed = derive_seed(0, 20, 1)
    real = run_simulation

    def flaky(n, seed, *args, **kwargs):
        if seed == bad_seed:
            raise NoEligibleAnchorError("synthetic failure")
        return real(n, seed, *args, **kwargs)

    monkeypatch.setattr(bench, "run_simulation", flaky)
    (row,) = run_campaign(ns=(20,), nsim=3, master_seed=0)
    assert row.failures == 1
    assert len(row.results) == 2
    assert math.isfinite(row.log10_mean_rmse)


def test_campaign_all_failures_yield_nan_row(monkeypatch):
    def broken(*args, **kwargs):
        raise NoEligibleAnchorError("synthetic failure")

    monkeypatch.setattr(bench, "run_simulation", broken)
    (row,) = run_campaign(ns=(20,), nsim=2, master_seed=0)
    assert row.failures == 2
    assert row.results == ()
    assert math.isnan(row.log10_mean_rmse)
    assert math.isnan(row.mean_depth)
    assert math.isnan(row.mean_build_ms)


# ---------------------------------------------------------------------- csv


def _stub_row(**overrides) -> CampaignRow:
    base = dict(
        n=100, nsim=5, method="anchor",
        log10_mean_rmse=-12.3456789, log10_max_rse=-6.5,
        mean_depth=3.2, mean_propagate_ms=0.123456789, mean_build_ms=1234.56789,
        failed=(), results=(),
    )
    base.update(overrides)
    return CampaignRow(**base)


def test_format_row_six_significant_digits():
    assert format_row(_stub_row()) == "100,5,anchor,-12.3457,-6.5,3.2,0.123457,1234.57"


def test_export_csv_writes_header_and_rows(tmp_path):
    path = tmp_path / "out.csv"
    export_csv([_stub_row(), _stub_row(n=200)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("100,5,anchor,")
    assert lines[2].startswith("200,5,anchor,")


def test_export_csv_replaces_an_existing_file(tmp_path):
    path = tmp_path / "out.csv"
    export_csv([_stub_row(), _stub_row(n=200)], path)
    export_csv([_stub_row(n=500)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("500,5,anchor,")


def test_export_csv_round_trips_values(tmp_path):
    path = tmp_path / "out.csv"
    (row,) = run_campaign(ns=(15,), nsim=2, master_seed=7)
    export_csv([row], path)
    fields = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert fields[:3] == ["15", "2", "anchor"]
    assert float(fields[3]) == pytest.approx(row.log10_mean_rmse, rel=1e-5)
    assert float(fields[4]) == pytest.approx(row.log10_max_rse, rel=1e-5)
    assert float(fields[5]) == pytest.approx(row.mean_depth, rel=1e-5)
    assert float(fields[7]) == pytest.approx(row.mean_build_ms, rel=1e-5)


# ----------------------------------------------------- pipeline entry point


def test_reconstruct_report_fields():
    _, t, gt = sample_and_build(50, 4)
    rep = reconstruct(t, "anchor", gt)
    assert rep.method == "anchor"
    assert rep.anchor is not None
    assert len(rep.generators) == 50
    assert rep.depth >= 1
    assert rep.residual is not None and rep.residual < 1e-9
    assert rep.condition is not None and rep.condition >= 1.0
    assert rep.rmse is not None and rep.rmse < 1e-10
    assert rep.max_rse is not None and rep.rmse <= rep.max_rse


@pytest.mark.parametrize("method, keys", [
    ("anchor", {"anchor", "refine_iterations", "condition", "residual"}),
    ("brute", {"residual"}),
    ("cprime", set()),
])
def test_summary_keys_per_method(method, keys):
    """Every method states its method, cell count and depth (0 for the two
    baselines); ground truth adds the two errors. Values are plain Python."""
    _, t, gt = sample_and_build(50, 4)
    base = {"method", "cells", "depth"} | keys
    assert reconstruct(t, method).summary().keys() == base
    facts = reconstruct(t, method, gt).summary()
    assert facts.keys() == base | {"rmse", "max_rse"}
    assert (facts["method"], facts["cells"]) == (method, 50)
    assert method == "anchor" or facts["depth"] == 0
    assert {type(v) for v in facts.values()} <= {str, int, float}


def test_reconstruct_without_ground_truth():
    _, t, _ = sample_and_build(30, 6)
    rep = reconstruct(t, "brute")
    assert rep.rmse is None and rep.max_rse is None
    assert rep.anchor is None
    assert len(rep.generators) == 30


def test_reconstruct_rejects_unknown_method():
    _, t, _ = sample_and_build(30, 6)
    with pytest.raises(ValueError, match="unknown method"):
        reconstruct(t, "magic")




def test_reconstruct_rejects_mismatched_truth():
    _, t, _ = sample_and_build(30, 6)
    _, _, other = sample_and_build(40, 6)
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(t, "anchor", other)
    # checked before the work: this diagram has no eligible anchor
    two_sites, _ = build_voronoi(SiteSample((Point2(0.0, 0.0), Point2(2.0, 0.0)), 2.0, None))
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(two_sites, "anchor", GroundTruth(np.zeros((3, 2))))
