"""``tools/scaled.py`` runs: its smallest rows, one repetition each."""

from __future__ import annotations

import importlib.util
import json
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
    assert scaled.hierarchy_row(n, levels, repeats=1) > 0
    bracket, christoffel, tables, families = scaled.residual_row(min(scaled.RESIDUAL_ROWS), repeats=1)
    assert bracket > 0 and christoffel > 0 and tables > 0
    assert list(families) == ["s1", "s2", "s3", "s4", "s5", "c1", "ass1", "ass2"]


def test_smallest_load_row_runs():
    scaled = _scaled()
    n = min(scaled.LOAD_ROWS)
    ms, entries, distinct = scaled.load_row(n, repeats=1)
    assert ms > 0
    assert (entries, distinct) == (n * n + n**3, n * n + n + 1)


def test_smallest_simulate_rows_run():
    scaled = _scaled()
    level, m, dt, _ = min(scaled.SIMULATE_ROWS)
    assert scaled.step_row(level, m, dt, 4, repeats=1) > 0
    assert scaled.teardown_row(1, 64, dt, 4, processes=1) > 0


def test_smallest_initial_data_rows_run():
    scaled = _scaled()
    assert scaled.parse_row(min(scaled.INITIAL_DATA_EXPONENTS), repeats=1) > 0
    ms, name = scaled.simulate_load_row(repeats=1)
    assert ms > 0 and name.endswith(".json")


def test_source_compile_rows_run():
    scaled = _scaled()
    rows = scaled.compile_rows(repeats=1)
    modules = sorted(path.name for path in scaled.PACKAGE.glob("*.py"))
    assert [name for name, _, _ in rows] == modules + ["total"]
    assert rows[-1][1] == sum(lines for _, lines, _ in rows[:-1])
    assert all(lines > 0 and ms > 0 for _, lines, ms in rows)


def test_rational_arithmetic_rows_run():
    scaled = _scaled()
    for operation in scaled.ARITHMETIC:
        median, worst = scaled.arithmetic_row(operation, repeats=1)
        assert 0 < median <= worst


def test_gcd_corpus_row_runs():
    median, worst = _scaled().gcd_row(repeats=1)
    assert 0 < median <= worst


def test_smallest_json_case_prints_one_object_per_value(monkeypatch, capsys):
    scaled = _scaled()
    _, _, dt, _ = scaled.TEARDOWN_ROW
    monkeypatch.setattr(scaled, "HIERARCHY_ROWS", [min(scaled.HIERARCHY_ROWS)])
    monkeypatch.setattr(scaled, "RESIDUAL_ROWS", [min(scaled.RESIDUAL_ROWS)])
    monkeypatch.setattr(scaled, "LOAD_ROWS", [min(scaled.LOAD_ROWS)])
    # every (level, M) of the benchmark's pair runs, four steps each
    simulate_rows = [(level, m, step, 4) for level, m, step, _ in scaled.SIMULATE_ROWS]
    monkeypatch.setattr(scaled, "SIMULATE_ROWS", simulate_rows)
    monkeypatch.setattr(scaled, "TEARDOWN_ROW", (1, 64, dt, 4))
    monkeypatch.setattr(scaled, "INITIAL_DATA_EXPONENTS", [min(scaled.INITIAL_DATA_EXPONENTS)])
    monkeypatch.setattr(scaled, "REPEATS", 1)
    monkeypatch.setattr(scaled, "TEARDOWN_PROCESSES", 1)
    assert scaled.main(["--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(sorted(r) == ["name", "unit", "value"] for r in records)
    names = [r["name"] for r in records]
    assert names[0] == "hierarchy N=2 --levels 6 generation"
    modules = len(list(scaled.PACKAGE.glob("*.py")))
    assert len(names) == len(set(names)) == 1 + 11 + 3 + 3 * 6 + 1 + 2 * (modules + 1) + 2 + 3 * 2 + 2
    assert "source compile total compile" in names
    assert [n for n in names if n.endswith("per step")] == [
        f"simulate N=2 level {level} M={m} per step" for level in (1, 2, 3) for m in (256, 512)
    ]
    assert names[-2:] == ["gcd corpus 25 sums median str", "gcd corpus 25 sums worst str"]
    assert {r["name"]: r["value"] for r in records}["load explicit g/b N=5 entries"] == 150
    assert all(r["value"] > 0 for r in records)
