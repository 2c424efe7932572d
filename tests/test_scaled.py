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
    bracket, christoffel, tables, families = scaled.residual_row(min(scaled.RESIDUAL_ROWS), repeats=1)
    assert bracket > 0 and christoffel > 0 and tables > 0
    assert list(families) == ["s1", "s2", "s3", "s4", "s5"]


def test_smallest_load_row_runs():
    scaled = _scaled()
    n = min(scaled.LOAD_ROWS)
    ms, entries, distinct = scaled.load_row(n, repeats=1)
    assert ms > 0
    assert (entries, distinct) == (n * n + n**3, n * n + n + 1)


def test_smallest_simulate_rows_run():
    scaled = _scaled()
    level, m, dt, _ = scaled.SIMULATE_ROW
    assert scaled.step_row(level, m, dt, 4, repeats=1) > 0
    assert scaled.teardown_row(1, 64, dt, 4, processes=1) > 0
