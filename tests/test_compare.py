"""Unit tests for ``tools/compare.py`` (no benchmark process runs).

The verdict is driven with synthetic runs; the round robin with stub
runners over a throwaway git repository, so the worktree bookkeeping
is checked without running a workload.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare.py"

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "p50_us", "better": "lower", "bound": 0.25},
]}
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0]
PARENT2 = [100.0, 99.0, 101.0, 100.0, 98.0]


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("compare", module)
    spec.loader.exec_module(module)
    return module


class TestVerdict:
    def test_clean_win_reads_faster(self, compare):
        change = [120.0, 121.0, 119.0, 122.0, 118.0]
        assert compare.verdict(PARENT, PARENT2, change, "higher", 0.25) == "faster"
        # the same runs as latencies: lower is better, so the change is worse
        slower = [v * 2 for v in PARENT]
        assert compare.verdict(PARENT, PARENT2, slower, "lower", 0.25) == "slower"

    def test_a_a_reads_inside_noise(self, compare):
        change = [101.0, 99.0, 100.0, 98.0, 102.0]
        assert compare.verdict(PARENT, PARENT2, change, "higher", 0.25) == "inside noise"
        assert compare.verdict(PARENT, PARENT2, change, "lower", 0.25) == "inside noise"

    def test_nine_of_ten_pairs_without_a_clear_margin_is_noise(self, compare):
        # wins 9/10 pairs, but by less than the parents' interquartile range
        change = [103.0, 102.0, 101.2, 101.0, 99.0]
        assert compare.wins(change, PARENT, "higher") + compare.wins(
            change, PARENT2, "higher") == 9
        assert compare.verdict(PARENT, PARENT2, change, "higher", 0.25) == "inside noise"

    def test_parent_spread_wider_than_bound_reads_unresolved(self, compare):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0]
        parent2 = [50.0, 150.0, 90.0, 110.0, 100.0]
        change = [101.0, 99.0, 100.0, 98.0, 102.0]
        assert compare.verdict(parent, parent2, change, "higher", 0.25) == "unresolved"

    def test_change_beating_every_parent_run_is_not_unresolved(self, compare):
        parent = [0.0, 100.0, 0.0, 100.0, 0.0]
        parent2 = [100.0, 0.0, 100.0, 0.0, 100.0]
        assert compare.verdict(parent, parent2, [101.0] * 5, "higher", 0.25) == "inside noise"

    def test_summary_holds_medians_wins_and_gap(self, compare):
        s = compare.summarize(
            {"parent": PARENT, "change": [120.0] * 5, "parent2": [110.0] * 5},
            "higher", 0.25)
        assert s["median"] == {"parent": 100.0, "change": 120.0, "parent2": 110.0}
        assert s["wins"] == [5, 5]
        assert s["aa_gap"] == pytest.approx(0.10)
        assert s["verdict"] == "faster"


def _runs(value_of, **overrides):
    runs = []
    for r in range(5):
        for tree in ("parent", "change", "parent2"):
            value = value_of(tree, r)
            runs.append({"workload": "w", "seed": 7, "round": r, "tree": tree,
                         "correct": True, "work_digest": "d",
                         "metrics": {"ops_per_s": value, "p50_us": 1e6 / value}})
    runs[-1].update(overrides)
    return runs


class TestJudge:
    def test_every_metric_gets_a_verdict(self, compare):
        summary = compare.judge(
            _runs(lambda tree, r: 120.0 + r if tree == "change" else 100.0 + r % 2), SPEC)
        verdicts = {m: s["verdict"] for m, s in summary["w"]["7"].items()}
        assert verdicts == {"ops_per_s": "faster", "p50_us": "faster"}
        assert any(line.endswith("-> faster") for line in compare.report(summary))

    def test_a_failed_run_yields_no_verdict(self, compare):
        runs = _runs(lambda tree, r: 100.0, correct=False, error="exit 1: boom")
        summary = compare.judge(runs, SPEC)
        assert summary["w"]["7"] == {"no_verdict": "parent2 round 4: exit 1: boom"}
        assert compare.report(summary) == [
            "w seed 7: NO VERDICT (parent2 round 4: exit 1: boom)"]

    def test_an_incorrect_run_yields_no_verdict(self, compare):
        summary = compare.judge(_runs(lambda tree, r: 100.0, correct=False), SPEC)
        assert "incorrect output" in summary["w"]["7"]["no_verdict"]

    def test_a_work_digest_mismatch_yields_no_verdict(self, compare):
        summary = compare.judge(_runs(lambda tree, r: 100.0, work_digest="e"), SPEC)
        assert summary["w"]["7"] == {"no_verdict": "trees disagree on work_digest"}


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
        cwd=repo, capture_output=True, text=True, check=True).stdout


@pytest.fixture()
def repo(tmp_path):
    path = tmp_path / "repo"
    path.mkdir()
    _git(path, "init", "-q")
    for message in ("parent", "change"):
        (path / "f.txt").write_text(message)
        _git(path, "add", "f.txt")
        _git(path, "commit", "-q", "-m", message)
    return path


class TestRoundRobin:
    def test_order_rotates_and_each_tree_is_its_commit(self, compare, repo):
        seen = []

        def run(tree, workload, seed):
            seen.append((tree.name, (tree / "f.txt").read_text()))
            return {"correct": True, "metrics": {"ops_per_s": 1.0}}

        runs = compare.round_robin(repo, "HEAD~1", "HEAD", ["w"], run, seeds=(1,), rounds=3)
        assert [name for name, _ in seen] == [
            "parent", "change", "parent2",
            "change", "parent2", "parent",
            "parent2", "parent", "change",
        ]
        assert all(text == ("change" if name == "change" else "parent")
                   for name, text in seen)
        assert [(r["round"], r["tree"]) for r in runs[:2]] == [(0, "parent"), (0, "change")]
        assert len({r["sha"] for r in runs}) == 2

    def test_a_runner_raising_mid_round_leaves_no_worktree(self, compare, repo):
        before = _git(repo, "worktree", "list")
        trees = []

        def run(tree, workload, seed):
            trees.append(tree)
            if len(trees) == 2:
                raise RuntimeError("stub runner failed")
            return {"correct": True, "metrics": {"ops_per_s": 1.0}}

        with pytest.raises(RuntimeError, match="stub runner failed"):
            compare.round_robin(repo, "HEAD~1", "HEAD", ["w"], run, seeds=(1,), rounds=2)
        assert _git(repo, "worktree", "list") == before
        assert not any(tree.exists() for tree in trees)
