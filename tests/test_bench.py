"""The jet-layer timing script: one set per label, side by side in one file."""

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
