"""The analysis JSON of every shipped system is byte-identical to its recorded golden."""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from posetsys import report
from posetsys.fileio import load_system

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "goldens.json").read_text(encoding="utf-8")
)["corpus"]
SHIPPED = sorted(
    (entry for entry in resources.files("posetsys.data").iterdir() if entry.name.endswith(".json")),
    key=lambda entry: entry.name,
)


def test_every_shipped_system_has_a_golden():
    assert sorted(Path(entry.name).stem for entry in SHIPPED) == sorted(GOLDENS)


@pytest.mark.parametrize("entry", SHIPPED, ids=lambda entry: Path(entry.name).stem)
def test_analyze_json_matches_golden(entry):
    text = report.render_json(report.analyze(load_system(entry)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDENS[Path(entry.name).stem]["analyze_sha256"]
