"""The mutant register stays in step with the code it mutates.

``scripts/mutants.py`` runs in CI after Tier-1; these checks fail first when
an edit moves a registered text or renames a test the register names.
"""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_register_text_occurs_once():
    assert mutants.misplaced(mutants.REGISTER) == []


def test_every_named_test_is_defined():
    for entry in mutants.REGISTER:
        if "killed_by" not in entry:
            continue
        path, name = entry["killed_by"].split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        assert name.split("[")[0] in defined, entry["name"]


def test_outside_a_checkout_sha_and_dirty_are_null(tmp_path, monkeypatch):
    # A copy of the sources without .git, as ``git archive`` makes; git may
    # not look above it.  No mutant runs, and no test run is needed.
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    mutants.copy_tree(checkout)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.setattr(mutants, "ROOT", checkout)
    monkeypatch.setattr(mutants, "REGISTER", [])
    monkeypatch.setattr(mutants, "run_tests", lambda tree, ids: [])
    out = tmp_path / "MUTANTS.json"
    assert mutants.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["sha"], report["dirty"]) == (None, None)
    assert report["entries"] == []
