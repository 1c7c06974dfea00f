"""Replay every stored fixture through the regeneration script's
``run_case`` and require byte-identical output."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
NAMES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())

_spec = importlib.util.spec_from_file_location("regen_fixtures", ROOT / "scripts" / "regen_fixtures.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", NAMES)
def test_fixture_replays_byte_identical(name, tmp_path):
    target = tmp_path / "output.json"
    assert regen.run_case(FIXTURES / name, target) == 0
    assert target.read_bytes() == (FIXTURES / name / "output.json").read_bytes()


def test_regen_script_rewrites_every_output_byte_identical(tmp_path, monkeypatch):
    """scripts/regen_fixtures.py, pointed at a copy of three fixtures whose
    output.json files were deleted plus a case whose command line exits 2,
    writes back every output before that case byte for byte, returns 2 and
    writes nothing after it, and adds no directory."""
    copy = tmp_path / "fixtures"
    kept, after = ["add-characteristic", "residual-check-pass"], "tau-twist"
    for name in kept + [after]:
        shutil.copytree(FIXTURES / name, copy / name, ignore=shutil.ignore_patterns("output.json"))
    (copy / "stop-here").mkdir()
    (copy / "stop-here" / "argv.json").write_text(json.dumps(["add", "t", "t"]), encoding="utf-8")
    monkeypatch.setattr(regen, "FIXTURES", copy)
    assert regen.main() == 2
    assert sorted(p.name for p in copy.iterdir()) == sorted(kept + [after, "stop-here"])
    assert sorted(p.parent.name for p in copy.glob("*/output.json")) == kept
    for name in kept:
        assert (copy / name / "output.json").read_bytes() == (FIXTURES / name / "output.json").read_bytes(), name
