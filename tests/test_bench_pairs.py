"""How ``tools/bench_pairs.py`` judges a change against its parent: the
change's wins per pair, whether its median gain exceeds the parent's
interquartile range, and whether it regressed past the declared bound or
the parent spreads too widely to tell, each in the direction BENCHMARK.json
declares; and how it reads each replay's result line."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload(tool, baseline: dict, change: dict) -> dict:
    """A workload as ``e2e`` writes it. Each side maps a metric to its value
    in each pair; a metric it does not name reads 1.0 in every run."""
    out = {}
    for side, values in (("baseline", baseline), ("change", change)):
        pairs = len(next(iter(values.values())))
        runs = [
            {m: values.get(m, [1.0] * pairs)[i] for m in tool.E2E_METRICS} for i in range(pairs)
        ]
        summary = {m: tool.summary([r[m] for r in runs]) for m in tool.E2E_METRICS}
        out[side] = {"runs": runs, "summary": summary}
    return out


def runs_of(data: dict) -> dict:
    return {side: data[side]["runs"] for side in ("baseline", "change")}


def test_directions_come_from_the_declared_benchmark(tool):
    assert tool.BETTER["wall_s"] == "lower"
    assert tool.BETTER["pass_at_1"] == "higher"


def test_wins_count_strictly_better_pairs_and_ties_for_neither(tool):
    data = workload(
        tool,
        {"wall_s": [3.0, 3.0, 3.0, 3.0], "pass_at_1": [0.5, 0.5, 0.5, 0.5]},
        {"wall_s": [2.5, 3.0, 3.5, 2.0], "pass_at_1": [0.75, 0.5, 0.25, 0.75]},
    )
    runs = runs_of(data)
    # Lower is better: 2.5 and 2.0 win, 3.0 ties, 3.5 loses.
    assert tool.wins(runs, "wall_s") == 2
    # Higher is better: both 0.75 win, 0.5 ties, 0.25 loses.
    assert tool.wins(runs, "pass_at_1") == 2
    swapped = {"baseline": runs["change"], "change": runs["baseline"]}
    assert tool.wins(swapped, "wall_s") == 1
    assert tool.wins(swapped, "pass_at_1") == 1
    # Every metric left at 1.0 ties in every pair.
    assert tool.wins(runs, "llm_calls") == 0


@pytest.mark.parametrize(
    "change, gain, exceeds",
    [
        ([1.0, 2.0, 3.0, 4.0, 5.0], 3.0, True),
        # A gain equal to the parent's IQR (7 - 5) is not enough.
        ([3.0, 4.0, 4.0, 5.0, 6.0], 2.0, False),
        ([7.0, 8.0, 9.0, 10.0, 11.0], -3.0, False),
    ],
)
def test_lower_metric_gain_is_judged_against_the_parent_iqr(tool, change, gain, exceeds):
    data = workload(tool, {"wall_s": [4.0, 5.0, 6.0, 7.0, 8.0]}, {"wall_s": change})
    row = tool.compare(data)["wall_s"]
    assert row["better"] == "lower"
    assert (row["baseline_median"], row["baseline_iqr"]) == (6.0, 2.0)
    assert row["median_gain"] == gain
    assert row["gain_exceeds_baseline_iqr"] is exceeds
    assert row["change_wins"] == tool.wins(runs_of(data), "wall_s")


@pytest.mark.parametrize(
    "change, gain, exceeds, wins",
    [
        ([0.75] * 5, 0.25, True, 4),
        # Same median, zero parent IQR: no gain, one win, three ties.
        ([0.5] * 5, 0.0, False, 1),
        ([0.25] * 5, -0.25, False, 0),
    ],
)
def test_higher_metric_gain_is_judged_against_the_parent_iqr(tool, change, gain, exceeds, wins):
    data = workload(tool, {"pass_at_1": [0.25, 0.5, 0.5, 0.5, 0.75]}, {"pass_at_1": change})
    row = tool.compare(data)["pass_at_1"]
    assert row["better"] == "higher"
    assert (row["baseline_median"], row["baseline_iqr"]) == (0.5, 0.0)
    assert row["median_gain"] == gain
    assert row["gain_exceeds_baseline_iqr"] is exceeds
    assert row["change_wins"] == wins


@pytest.mark.parametrize(
    "change, regressed",
    [
        # The bound of wall_s is 0.25 of the parent's median of 6.0: 1.5 s.
        ([7.6] * 5, True),
        ([7.4] * 5, False),
        ([5.0] * 5, False),
    ],
)
def test_lower_metric_regresses_past_its_bound(tool, change, regressed):
    data = workload(tool, {"wall_s": [5.9, 6.0, 6.0, 6.0, 6.1]}, {"wall_s": change})
    row = tool.compare(data)["wall_s"]
    assert row["bound"] == 0.25
    assert row["regressed"] is regressed
    assert row["unresolved"] is False


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tool):
    # IQR 2.0 against a bound of 0.25 * 6.0 = 1.5; the change overlaps the parent.
    data = workload(
        tool, {"wall_s": [4.0, 5.0, 6.0, 7.0, 8.0]}, {"wall_s": [5.0, 6.0, 6.0, 6.0, 7.0]}
    )
    row = tool.compare(data)["wall_s"]
    assert row["regressed"] is False and row["unresolved"] is True


def test_every_change_run_better_than_every_parent_run_resolves_a_wide_spread(tool):
    data = workload(
        tool, {"wall_s": [4.0, 5.0, 6.0, 7.0, 8.0]}, {"wall_s": [1.0, 2.0, 2.0, 3.0, 3.5]}
    )
    row = tool.compare(data)["wall_s"]
    assert row["baseline_iqr"] > 0.25 * row["baseline_median"]
    assert row["regressed"] is False and row["unresolved"] is False


@pytest.mark.parametrize(
    "change, regressed",
    [
        # The bound of pass_at_1 is 0.05 of the parent's median of 0.5: 0.025.
        ([0.45] * 5, True),
        ([0.49] * 5, False),
        ([0.75] * 5, False),
    ],
)
def test_higher_metric_regresses_past_its_bound(tool, change, regressed):
    data = workload(tool, {"pass_at_1": [0.5] * 5}, {"pass_at_1": change})
    row = tool.compare(data)["pass_at_1"]
    assert row["bound"] == 0.05
    assert row["regressed"] is regressed
    assert row["unresolved"] is False


def test_compare_reports_every_declared_metric(tool):
    data = workload(tool, {"wall_s": [1.0, 1.0]}, {"wall_s": [1.0, 1.0]})
    rows = tool.compare(data)
    assert set(rows) == set(tool.E2E_METRICS)
    assert not any(row["gain_exceeds_baseline_iqr"] for row in rows.values())
    assert all(row["change_wins"] == 0 for row in rows.values())
    assert not any(row["regressed"] or row["unresolved"] for row in rows.values())


def fake_root(tmp_path, script: str) -> Path:
    """A checkout whose ``replaybench/run.py`` is ``script``."""
    root = tmp_path / "root"
    (root / "replaybench").mkdir(parents=True)
    (root / "replaybench" / "run.py").write_text(script, encoding="utf-8")
    return root


def test_a_crashed_replay_names_the_run_and_shows_its_stderr(tool, tmp_path):
    root = fake_root(tmp_path, 'print("warming up")\nraise RuntimeError("replay crashed")\n')
    with pytest.raises(SystemExit) as exit_info:
        tool.e2e_run(root, "paper_subproc", 7, 1.0)
    message = str(exit_info.value)
    for part in (str(root), "paper_subproc seed 7", "status 1", "RuntimeError: replay crashed"):
        assert part in message


def test_a_failed_gate_is_recorded_as_failed(tool, tmp_path):
    metrics = {name: {"value": 1.0} for name in tool.E2E_METRICS}
    line = json.dumps({"correct": False, "attempted": 2, "failed": 1, "metrics": metrics})
    root = fake_root(tmp_path, f"import sys\nprint({line!r})\nsys.exit(1)\n")
    out = tool.e2e(root, root, [7], 1.0, ["paper_subproc"])["workloads"]["paper_subproc"]
    assert set(out) == {"pairs", "baseline", "change"}
    for side in ("baseline", "change"):
        assert out[side]["failed"] == 1
        run = {"seed": 7, "failed": 1, **dict.fromkeys(tool.E2E_METRICS, 1.0)}
        assert out[side]["runs"] == [run]


CPU_LINE = (
    "paper_subproc: warm-up and 3 passes; wall, user and system CPU per run (s): "
    "2.000,0.100,0.900 2.100,0.100,0.020 2.200,0.100,0.030 2.300,0.100,0.025"
)


def test_the_system_cpu_per_run_is_the_median_of_the_measured_passes(tool):
    # The warm-up's 0.900 is left out.
    assert tool.sys_cpu_per_run(f"setup\n{CPU_LINE}\ngate: ok\n") == 0.025
    assert tool.sys_cpu_per_run("no such line\n") is None


def test_the_system_cpu_is_recorded_and_summarised_without_a_verdict(tool, tmp_path):
    metrics = {name: {"value": 1.0} for name in tool.E2E_METRICS}
    line = json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics})
    script = f"import sys\nprint({CPU_LINE!r}, file=sys.stderr)\nprint({line!r})\n"
    root = fake_root(tmp_path, script)
    out = tool.e2e(root, root, [7, 8], 1.0, ["paper_subproc"])["workloads"]["paper_subproc"]
    for side in ("baseline", "change"):
        assert [run[tool.SYS_CPU] for run in out[side]["runs"]] == [0.025, 0.025]
        assert out[side]["summary"][tool.SYS_CPU]["median"] == 0.025
    assert tool.SYS_CPU not in tool.compare(out)
