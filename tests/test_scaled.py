"""``tools/scaled.py`` runs: its smallest rows, one repetition each."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scaled.py"


def _scaled():
    spec = importlib.util.spec_from_file_location("scaled", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_scaled_rows_run():
    scaled = _scaled()
    n, levels = min(scaled.HIERARCHY_ROWS)
    generation, verification = scaled.hierarchy_row(n, levels, repeats=1)
    assert generation > 0 and verification > 0
    bracket, tables, families = scaled.residual_row(min(scaled.RESIDUAL_ROWS), repeats=1)
    assert bracket > 0 and tables > 0
    assert list(families) == ["s1", "s2", "s3", "s4", "s5"]
