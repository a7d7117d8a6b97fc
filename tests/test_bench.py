"""The layer timing script: one set per label, side by side in one file."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_sets_sit_side_by_side(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "CASES", ((2, 4, 64), (3, 3, 32)))
    out = tmp_path / "BENCH.json"
    for label in ("parent", "change"):
        assert bench.main(["--label", label, "--out", str(out), "--repeats", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["layer"] == "jets"
    assert set(data["sets"]) == {"parent", "change"}
    for entry in data["sets"].values():
        assert {"git_sha", "git_dirty", "nproc", "numpy", "python"} <= set(entry)
        assert [(c["dim"], c["order"], c["nodes"]) for c in entry["cases"]] == [
            (2, 4, 64), (3, 3, 32)]
        assert all(c["mul_ms"] > 0 and c["sin_ms"] > 0 for c in entry["cases"])
    assert "parent: dim 2 order 4 nodes 64" in capsys.readouterr().out


def test_geometry_layer_times_frame_and_field_jets(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "GEOMETRY_CASES",
                        (("sphere2", (8, 12)), ("torus3", (8, 8, 10))))
    out = tmp_path / "BENCH_2.json"
    for label in ("parent", "change"):
        assert bench.main(["--layer", "geometry", "--label", label, "--out",
                           str(out), "--repeats", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["layer"] == "geometry"
    assert set(data["sets"]) == {"parent", "change"}
    for entry in data["sets"].values():
        assert {"git_sha", "git_dirty", "nproc", "numpy", "python"} <= set(entry)
        assert [(c["chart"], c["grid"], c["nodes"]) for c in entry["cases"]] == [
            ("sphere2", [8, 12], 96), ("torus3", [8, 8, 10], 640)]
        for case in entry["cases"]:
            assert case["frame_ms"] > 0 and case["field_jets_ms"] > 0
            assert min(case[f"hessian_k{k}_ms"] for k in range(3)) > 0
            # The traced peak holds the result at least.
            assert case["hessian_k2_peak_mib"] >= case["hessian_k2_result_mib"] > 0
            assert len(case["potentials"]) == bench.POTENTIALS
    assert "change: torus3 nodes 640: frame" in capsys.readouterr().out


def test_fit_layer_times_setup_residual_stack_and_fit(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(bench, "FIT_CASES", (
        ("torus2", (16, 16), "ricci", "fourier", 1),
        ("sphere2", (16, 16), "yamabe", "product", 1),
    ))
    out = tmp_path / "BENCH_3.json"
    for label in ("parent", "change"):
        assert bench.main(["--layer", "fit", "--label", label, "--out",
                           str(out), "--repeats", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["layer"] == "fit"
    assert set(data["sets"]) == {"parent", "change"}
    for entry in data["sets"].values():
        assert {"git_sha", "git_dirty", "nproc", "numpy", "python"} <= set(entry)
        assert [(c["chart"], c["grid"], c["terms"], c["fit_nodes"])
                for c in entry["cases"]] == [("torus2", [16, 16], 5, 64),
                                             ("sphere2", [16, 16], 4, 64)]
        for case in entry["cases"]:
            assert case["iterations"] >= 1
            assert min(case["setup_ms"], case["residual_stack_ms"],
                       case["fit_ms"]) > 0
    assert "change: torus2 fourier 1 K 5 fit nodes 64: set-up" in capsys.readouterr().out


def test_import_layer_times_fresh_interpreters(tmp_path, capsys):
    out = tmp_path / "BENCH_4.json"
    for label in ("parent", "change"):
        assert bench.main(["--layer", "import", "--label", label, "--out",
                           str(out), "--repeats", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["layer"] == "import"
    assert set(data["sets"]) == {"parent", "change"}
    for entry in data["sets"].values():
        assert {"git_sha", "git_dirty", "nproc", "numpy", "python"} <= set(entry)
        [case] = entry["cases"]
        assert case["module"] == "solitonlab.cli"
        assert isinstance(case["bytecode_cached"], bool)
        assert min(case["import_ms"], case["numpy_ms"]) > 0
    assert "change: import solitonlab.cli after numpy" in capsys.readouterr().out


def test_workspace_layer_runs_the_library_loop(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "WORKSPACE_CASES",
                        (("sphere2", (8, 12)), ("torus3", (8, 8, 8))))
    out = tmp_path / "BENCH_5.json"
    for label in ("parent", "change"):
        assert bench.main(["--layer", "workspace", "--label", label, "--out",
                           str(out), "--repeats", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["layer"] == "workspace"
    assert set(data["sets"]) == {"parent", "change"}
    for entry in data["sets"].values():
        assert {"git_sha", "git_dirty", "nproc", "numpy", "python"} <= set(entry)
        [case] = entry["cases"]
        assert case["charts"] == [["sphere2", [8, 12]], ["torus3", [8, 8, 8]]]
        # Per chart: the soliton, the vector field and the coordinate
        # expression under lap, each built once.
        assert case["misses"] == 6
        assert case["currsize"] <= 2
        assert min(case["loop_ms"], case["peak_rss_mib"]) > 0
    assert "change: library loop on 2 charts" in capsys.readouterr().out
