"""Command line behavior: outputs, determinism and the exit-code contract.

Commands run in-process through main(argv). Three subprocess tests run the
command line end to end: one as ``python -m vorogen.cli`` with the package on
``PYTHONPATH``, one that runs every command in one interpreter and checks
that none imports scipy, and one through the installed console script,
skipped when it is not installed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import max_cell_error
import vorogen
from vorogen import bench
from vorogen.bench import derive_seed
from vorogen.cli import main
from vorogen.errors import NoEligibleAnchorError
from vorogen.pipeline import reconstruct
from vorogen.tessellation import Tessellation, load, save


@pytest.fixture()
def tess_file(tmp_path):
    path = tmp_path / "t40.json"
    assert main(["generate", "--n", "40", "--seed", "1", "--out", str(path)]) == 0
    return path


# ---------------------------------------------------------------- generate


def test_generate_writes_loadable_file(tess_file, capsys):
    t, gt = load(tess_file)
    assert len(t.cells) == 40
    assert gt is not None and len(gt.generators) == 40


def test_generate_reports_counts(tmp_path, capsys):
    path = tmp_path / "t.json"
    assert main(["generate", "--n", "12", "--seed", "0", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "12 cells" in out


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["generate", "--n", "25", "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_tiny_n(tmp_path, capsys):
    code = main(["generate", "--n", "1", "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


# ------------------------------------------------------------- reconstruct


def test_reconstruct_reports_accuracy(tess_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["reconstruct", "--in", str(tess_file), "--report", str(report)])
    assert code == 0
    assert "rmse:" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["method"] == "anchor"
    assert doc["cells"] == 40
    assert doc["depth"] >= 1
    assert doc["rmse"] < 1e-10
    assert doc["max_rse"] < 1e-9
    assert math.isfinite(doc["condition"]) and doc["condition"] >= 1.0


def test_reconstruct_out_round_trip(tess_file, tmp_path):
    out = tmp_path / "rec.json"
    assert main(["reconstruct", "--in", str(tess_file), "--out", str(out)]) == 0
    t, gt = load(tess_file)
    t2, recovered = load(out)
    assert t2.vertices == t.vertices
    assert recovered is not None
    assert max_cell_error(recovered.generators, gt) < 1e-9


def test_reconstruct_baseline_methods(tess_file, tmp_path):
    for method, bound in (("brute", 1e-9), ("cprime", 1e-5)):
        report = tmp_path / f"{method}.json"
        code = main([
            "reconstruct", "--in", str(tess_file),
            "--method", method, "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["rmse"] < bound


@pytest.mark.parametrize("method", ["anchor", "brute", "cprime"])
def test_reconstruct_report_is_the_summary(tess_file, tmp_path, capsys, method):
    """--report writes ``ReconstructionReport.summary()`` of the loaded file,
    and stdout prints its sorted items as ``key: value`` lines."""
    report = tmp_path / "report.json"
    code = main(["reconstruct", "--in", str(tess_file), "--method", method, "--report", str(report)])
    assert code == 0
    t, gt = load(tess_file)
    want = reconstruct(t, method, gt).summary()
    assert json.loads(report.read_text()) == want
    assert capsys.readouterr().out == "".join(f"{k}: {v}\n" for k, v in sorted(want.items()))


def test_reconstruct_alternative_policies(tess_file):
    """The anchor is always the cell of largest edge ratio: the retired
    --anchor-policy and --anchor-seed are usage errors."""
    for flag, value in (("--anchor-policy", "random"), ("--anchor-seed", "3")):
        assert main(["reconstruct", "--in", str(tess_file), flag, value]) == 2


def test_reconstruct_inconsistent_input_exits_4(tess_file, tmp_path, capsys):
    t, gt = load(tess_file)
    rng = np.random.default_rng(0)
    moved = [
        (p[0] + rng.uniform(-1e-3, 1e-3), p[1] + rng.uniform(-1e-3, 1e-3))
        for p in t.vertices
    ]
    bad = tmp_path / "bad.json"
    save(Tessellation(moved, list(t.ridges), list(t.cells)), bad, gt)
    code = main(["reconstruct", "--in", str(bad)])
    assert code == 4
    assert "mirror-consistent" in capsys.readouterr().err


def test_missing_file_exits_5(tmp_path, capsys):
    ghost = str(tmp_path / "ghost.json")
    assert main(["reconstruct", "--in", ghost]) == 5
    assert main(["validate", "--in", ghost]) == 5


def test_corrupt_file_exits_5(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("this is not a tessellation\n")
    assert main(["validate", "--in", str(path)]) == 5
    assert "error:" in capsys.readouterr().err


def test_wrong_version_exits_5(tess_file, capsys):
    doc = json.loads(tess_file.read_text())
    doc["version"] = 99
    tess_file.write_text(json.dumps(doc))
    assert main(["reconstruct", "--in", str(tess_file)]) == 5
    assert "version" in capsys.readouterr().err


def _edit_first_finite_ridge(doc, ends):
    ridge = next(r for r in doc["ridges"] if "finite" in r)
    ridge["finite"] = ends


@pytest.mark.parametrize("method", ["anchor", "brute", "cprime"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["ridges"][0].update(cells=[0, 999]),
        lambda doc: _edit_first_finite_ridge(doc, [0, 999]),
        lambda doc: doc["cells"][0]["ridges"].__setitem__(0, 999),
    ],
    ids=["cell", "vertex", "ridge"],
)
def test_reconstruct_out_of_range_ids_exit_4(tmp_path, capsys, method, edit):
    path = tmp_path / "t60.json"
    assert main(["generate", "--n", "60", "--seed", "3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["reconstruct", "--in", str(path), "--method", method]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "there are" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", ["foreign", "repeated"])
def test_reconstruct_broken_incidence_exits_4(tmp_path, capsys, fault):
    """Cell 0 lists a ridge that does not border it, or its first ridge twice."""
    path = tmp_path / "t60.json"
    assert main(["generate", "--n", "60", "--seed", "3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    rids = doc["cells"][0]["ridges"]
    if fault == "foreign":
        rids[0] = next(k for k, r in enumerate(doc["ridges"]) if 0 not in r["cells"])
        words = f"cell 0 lists ridge {rids[0]} that does not border it"
    else:
        rids.append(rids[0])
        words = f"asymmetric adjacency at ridge {rids[0]} (cell 0)"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["reconstruct", "--in", str(path)]) == 4
    assert capsys.readouterr().err == f"error: {words}\n"


# ---------------------------------------------------------------- validate


def test_validate_accepts_generated_file(tess_file, capsys):
    assert main(["validate", "--in", str(tess_file)]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")


def test_validate_flags_tampered_file(tess_file, tmp_path, capsys):
    t, gt = load(tess_file)
    moved = list(t.vertices)
    moved[0] = (moved[0][0] + 5.0, moved[0][1] + 5.0)  # breaks convexity
    bad = tmp_path / "bad.json"
    save(Tessellation(moved, list(t.ridges), list(t.cells)), bad, gt)
    assert main(["validate", "--in", str(bad)]) == 4
    assert "violations" in capsys.readouterr().out


def test_validate_reports_shared_out_of_range_vertex(tmp_path, capsys):
    """Two consecutive ridges of a bounded cell end at the same missing
    vertex: validate reports it rather than walking the cell's polygon."""
    path = tmp_path / "t60.json"
    assert main(["generate", "--n", "60", "--seed", "3", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    first, second = next(c for c in doc["cells"] if c["bounded"])["ridges"][:2]
    (v,) = set(doc["ridges"][first]["finite"]) & set(doc["ridges"][second]["finite"])
    for ridge in doc["ridges"]:
        if "finite" in ridge:
            ridge["finite"] = [99999 if w == v else w for w in ridge["finite"]]
        elif ridge["ray"]["v"] == v:
            ridge["ray"]["v"] = 99999
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--in", str(path)]) == 4
    out = capsys.readouterr().out
    assert f"ridge {first} references an out-of-range vertex" in out
    assert f"ridge {second} references an out-of-range vertex" in out


# ------------------------------------------------------------------- bench


def test_bench_prints_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = main([
        "bench", "--ns", "10,20", "--nsim", "2", "--seed", "0",
        "--csv", str(csv_path),
    ])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    csv_lines = csv_path.read_text().splitlines()
    assert out_lines[0] == csv_lines[0]  # shared header
    assert out_lines[:3] == csv_lines[:3]
    assert csv_lines[1].startswith("10,2,anchor,")
    assert csv_lines[2].startswith("20,2,anchor,")


def test_bench_names_failed_simulations(monkeypatch, capsys):
    """Each failed simulation is printed on stderr, with its size, seed and
    error, under the count of failures."""
    bad_seed = derive_seed(0, 20, 1)
    real = bench.run_simulation

    def flaky(n, seed, *args, **kwargs):
        if seed == bad_seed:
            raise NoEligibleAnchorError("synthetic failure")
        return real(n, seed, *args, **kwargs)

    monkeypatch.setattr(bench, "run_simulation", flaky)
    assert main(["bench", "--ns", "20", "--nsim", "3", "--seed", "0"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "1 simulations failed and were excluded",
        f"  n=20 seed={bad_seed}: NoEligibleAnchorError: synthetic failure",
    ]


def test_bench_usage_errors(capsys):
    assert main(["bench", "--ns", "5", "--nsim", "1"]) == 2
    assert main(["bench", "--ns", "abc"]) == 2
    assert main(["bench", "--ns", "10", "--nsim", "0"]) == 2
    assert main(["bench", "--ns", "10", "--workers", "0"]) == 2


# ------------------------------------------------------------------- usage


def test_unknown_commands_and_flags_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate", "--n", "10", "--out", str(tmp_path / "t"), "--bogus"]) == 2


def test_module_entry_point_smoke(tmp_path):
    """generate, validate and reconstruct, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(vorogen.__file__).resolve().parents[1]))

    def cli(*args: str) -> str:
        run = subprocess.run(
            [sys.executable, "-m", "vorogen.cli", *args], capture_output=True, text=True, env=env
        )
        assert run.returncode == 0, (args[0], run.stderr)
        return run.stdout

    path, out, report = tmp_path / "t.json", tmp_path / "out.json", tmp_path / "report.json"
    cli("generate", "--n", "300", "--seed", "0", "--out", str(path))
    assert cli("validate", "--in", str(path)).strip().endswith("ok")
    cli("reconstruct", "--in", str(path), "--out", str(out), "--report", str(report))
    assert json.loads(report.read_text())["cells"] == 300
    for made in (path, out):
        t, gt = load(made)
        assert t.n_cells == 300 and gt is not None


def test_runtime_needs_only_numpy(tmp_path):
    """Every command, in one fresh interpreter, imports no scipy module:
    scipy is a test dependency (the Qhull oracle), not a runtime one. Every
    warning is an error there, as pyproject makes a RuntimeWarning here."""
    env = dict(os.environ, PYTHONPATH=str(Path(vorogen.__file__).resolve().parents[1]))
    script = """
import sys
from vorogen.cli import main
from vorogen.pipeline import reconstruct
commands = [["generate", "--n", "300", "--seed", "1", "--out", "t.json"], ["validate", "--in", "t.json"]]
commands += [["reconstruct", "--in", "t.json", "--method", m] for m in ("anchor", "brute", "cprime")]
commands += [["bench", "--ns", "50", "--nsim", "2"]]
for args in commands:
    assert main(args) == 0, args
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(
    shutil.which("vorogen") is None,
    reason="needs the installed console script: pip install --no-build-isolation -e .",
)
def test_console_script_smoke(tmp_path):
    exe = shutil.which("vorogen")
    path = tmp_path / "t.json"
    gen = subprocess.run(
        [exe, "generate", "--n", "12", "--seed", "0", "--out", str(path)],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0, gen.stderr
    val = subprocess.run(
        [exe, "validate", "--in", str(path)], capture_output=True, text=True
    )
    assert val.returncode == 0, val.stderr
    assert val.stdout.strip().endswith("ok")
