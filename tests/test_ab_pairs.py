"""``tools/ab_pairs.py`` judges paired benchmark results as documented.

Only the summary code runs here, on synthetic results; no benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [{"name": "tasks_per_s", "better": "higher", "bound": 0.25},
           {"name": "task_ms.p50", "better": "lower", "bound": 0.25}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(**series):
    """Per-pair metrics objects from one list of values per metric."""
    n = len(next(iter(series.values())))
    return [{name.replace("_p50", ".p50"): {"value": values[i]} for name, values in series.items()}
            for i in range(n)]


def test_clear_gain(tool):
    parent = runs(tasks_per_s=[100, 101, 102, 103, 104, 105, 106, 107, 108, 109],
                  task_ms_p50=[5.0] * 10)
    change = runs(tasks_per_s=[120, 121, 122, 123, 124, 125, 126, 127, 128, 129],
                  task_ms_p50=[4.0] * 10)
    rows = {r["name"]: r for r in tool.summarize(parent, change, METRICS)}
    assert rows["tasks_per_s"]["wins"] == 10 and rows["tasks_per_s"]["gain"]
    assert rows["tasks_per_s"]["parent"] == (101.75, 104.5, 107.25)
    assert rows["task_ms.p50"]["gain"] and not rows["task_ms.p50"]["worse"]
    assert len(tool.format_rows(rows.values())) == 2


def test_gain_needs_nine_tenths_and_a_gap_above_the_parents_spread(tool):
    parent = runs(tasks_per_s=[100.0] * 9 + [200.0], task_ms_p50=[5.0] * 10)
    # eight wins, two losses
    change = runs(tasks_per_s=[130.0] * 8 + [90.0, 100.0], task_ms_p50=[5.0] * 10)
    row = tool.summarize(parent, change, METRICS)[0]
    assert row["wins"] == 8 and not row["gain"]
    # ten wins, but the median moves less than the parent's quartile distance
    parent = runs(tasks_per_s=[100, 110, 120, 130, 140, 150, 160, 170, 180, 190],
                  task_ms_p50=[5.0] * 10)
    change = runs(tasks_per_s=[101, 111, 121, 131, 141, 151, 161, 171, 181, 191],
                  task_ms_p50=[5.0] * 10)
    row = tool.summarize(parent, change, METRICS)[0]
    assert row["wins"] == 10 and not row["gain"]


def test_ties_count_for_neither_side(tool):
    same = runs(tasks_per_s=[100.0] * 10, task_ms_p50=[5.0] * 10)
    for row in tool.summarize(same, same, METRICS):
        assert row["wins"] == 0 and not row["gain"] and not row["worse"]


def test_worse_beyond_the_bound(tool):
    parent = runs(tasks_per_s=[100.0] * 10, task_ms_p50=[4.0] * 10)
    change = runs(tasks_per_s=[76.0] * 10, task_ms_p50=[5.1] * 10)
    rows = {r["name"]: r for r in tool.summarize(parent, change, METRICS)}
    assert not rows["tasks_per_s"]["worse"]  # 24% below, within 0.25
    assert rows["task_ms.p50"]["worse"]  # 27.5% above
