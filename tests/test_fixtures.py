"""Replay every stored fixture and require byte-identical output."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from fqlin.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
NAMES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


@pytest.mark.parametrize("name", NAMES)
def test_fixture_replays_byte_identical(name, tmp_path):
    case = FIXTURES / name
    argv = json.loads((case / "argv.json").read_text(encoding="utf-8"))
    if (case / "input.json").exists():
        argv += ["-i", str(case / "input.json")]
    target = tmp_path / "output.json"
    assert main(argv + ["-o", str(target)]) == 0
    assert target.read_bytes() == (case / "output.json").read_bytes()


def test_regen_script_rewrites_every_output_byte_identical(tmp_path, monkeypatch):
    """scripts/regen_fixtures.py, pointed at a copy of fixtures/ whose
    output.json files were deleted, writes every one back byte for byte and
    adds no directory."""
    spec = importlib.util.spec_from_file_location("regen_fixtures", ROOT / "scripts" / "regen_fixtures.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    copy = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, copy)
    for output in copy.glob("*/output.json"):
        output.unlink()
    monkeypatch.setattr(regen, "FIXTURES", copy)
    assert regen.main() == 0
    assert sorted(p.name for p in copy.iterdir()) == NAMES
    for name in NAMES:
        assert (copy / name / "output.json").read_bytes() == (FIXTURES / name / "output.json").read_bytes(), name
