"""The README documents the public API: every name conirep exports."""

import re
from pathlib import Path

import conirep
import conirep.errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_export():
    named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", README.read_text(encoding="utf-8")))
    errors = {name for name in conirep.__all__ if hasattr(conirep.errors, name)}
    missing = sorted(set(conirep.__all__) - errors - named)
    assert not missing, f"README.md does not name {missing}"
