"""Replay every stored fixture and require byte-identical output."""

import importlib.util
import json
from pathlib import Path

import pytest

from fqlin.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
CASES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


@pytest.mark.parametrize("name", CASES)
def test_fixture_replays_byte_identical(name, tmp_path):
    case = FIXTURES / name
    argv = json.loads((case / "argv.json").read_text(encoding="utf-8"))
    if (case / "input.json").exists():
        argv += ["-i", str(case / "input.json")]
    target = tmp_path / "output.json"
    assert main(argv + ["-o", str(target)]) == 0
    assert target.read_bytes() == (case / "output.json").read_bytes()


def test_generator_and_fixtures_name_the_same_cases():
    """scripts/regen_fixtures.py, loaded without running main(), lists
    exactly the stored cases, with the stored argv and input documents."""
    spec = importlib.util.spec_from_file_location("regen_fixtures", ROOT / "scripts" / "regen_fixtures.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    assert sorted(name for name, _, _ in regen.CASES) == CASES
    for name, argv, doc in regen.CASES:
        case = FIXTURES / name
        assert (case / "argv.json").read_text(encoding="utf-8") == regen.canonical_dumps(argv), name
        if doc is not None and not callable(doc):
            assert (case / "input.json").read_text(encoding="utf-8") == regen.canonical_dumps(doc), name
