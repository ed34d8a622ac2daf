#!/usr/bin/env python
"""Judge a speed claim: a paired round robin of the end-to-end benchmark.

Usage::

    python tools/compare.py PARENT CHANGE [--workload NAME]...

PARENT and CHANGE are commits.  The tool checks out three detached
``git worktree``s under a temporary directory: PARENT, CHANGE and
PARENT again.  The second parent checkout is an A/A control: two
checkouts of one commit drift apart on a shared box, so a change is
judged against both.  Each named workload (default: every workload in
``BENCHMARK.json``) runs ``ROUNDS`` rounds at each of ``SEEDS``; a
round runs the three trees once each, and the order rotates every
round.  A run is ``BENCHMARK.json``'s ``command`` with ``--workload W
--seed S --seconds <run_seconds> --trace 0`` in the tree's checkout,
the command the benchmark itself runs.

Every run, with its metrics, ``correct``, ``failed``, ``work_digest``
and the ``cpus`` / Python / NumPy / sha / load average it ran under,
goes to ``BENCH_core.json`` beside a summary: per workload, seed and
end-to-end metric, the three medians, the parents' interquartile
range, the change's wins over each parent checkout, the A/A gap and
one verdict (:func:`verdict`).  A speed claim commits that file and
quotes its verdict lines.

Exit status: 0 when every (workload, seed) got verdicts; 1 when a run
failed, reported incorrect output, or the trees disagreed on
``work_digest`` (that seed gets no verdict).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = REPO_ROOT / "BENCH_core.json"

#: the claim must hold at two seeds, one of them not used while the
#: change was written
SEEDS = (31337, 2004)
#: 5 rounds x 2 parent checkouts = 10 pairs per seed
ROUNDS = 5
TREES = ("parent", "change", "parent2")


# ----------------------------------------------------------------------
# the statistic
# ----------------------------------------------------------------------
def _gain(value: float, better: str) -> float:
    return value if better == "higher" else -value


def wins(change: list[float], parent: list[float], better: str) -> int:
    """Rounds in which the change's run beats this parent's (ties: neither)."""
    return sum(_gain(c, better) > _gain(p, better) for c, p in zip(change, parent))


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], parent2: list[float], change: list[float],
            better: str, bound: float) -> str:
    """One metric's verdict over paired rounds.

    ``parent``, ``parent2`` and ``change`` hold one value per round, in
    round order; round *i* pairs ``change[i]`` with ``parent[i]`` and
    with ``parent2[i]``.  ``bound`` is the relative worsening the
    benchmark tolerates.  The parents are pooled:

    * *faster*: the change wins at least 9/10 of all pairs and its
      median beats the parents' by more than their interquartile range;
    * *slower*: its median is worse than the parents' by more than
      ``bound``;
    * *unresolved*: the parents' interquartile range is wider than
      ``bound``, unless every change run beats every parent run;
    * *inside noise*: anything else.
    """
    parents = parent + parent2
    base = statistics.median(parents)
    spread = iqr(parents)
    lead = _gain(statistics.median(change), better) - _gain(base, better)
    pairs = len(parent) + len(parent2)
    won = wins(change, parent, better) + wins(change, parent2, better)
    if won >= 0.9 * pairs and lead > spread:
        return "faster"
    if -lead > bound * abs(base):
        return "slower"
    beats_all = min(_gain(c, better) for c in change) > max(
        _gain(p, better) for p in parents)
    if spread > bound * abs(base) and not beats_all:
        return "unresolved"
    return "inside noise"


def summarize(values: dict[str, list[float]], better: str, bound: float) -> dict:
    """Medians, spread, wins, A/A gap and verdict of one metric.

    ``values`` maps each of :data:`TREES` to its runs in round order.
    """
    parent, change, parent2 = (values[tree] for tree in TREES)
    medians = {tree: statistics.median(values[tree]) for tree in TREES}
    return {
        "median": medians,
        "parents_iqr": iqr(parent + parent2),
        "wins": [wins(change, parent, better), wins(change, parent2, better)],
        "pairs_per_parent": len(change),
        "aa_gap": medians["parent2"] / medians["parent"] - 1.0,
        "verdict": verdict(parent, parent2, change, better, bound),
    }


def judge(runs: list[dict], spec: dict) -> dict:
    """Summaries per workload and seed, or why a seed gets none.

    ``{workload: {seed: {metric: summary}}}``; a seed with a failed or
    incorrect run, or whose runs disagree on ``work_digest``, maps to
    ``{"no_verdict": reason}`` instead.
    """
    out: dict[str, dict] = {}
    for run in runs:
        out.setdefault(run["workload"], {}).setdefault(str(run["seed"]), []).append(run)
    for workload, by_seed in out.items():
        for seed, seed_runs in by_seed.items():
            bad = [r for r in seed_runs if not r.get("correct")]
            digests = {r["work_digest"] for r in seed_runs if r.get("correct")}
            if bad:
                reason = "; ".join(
                    f"{r['tree']} round {r['round']}: {r.get('error') or 'incorrect output'}"
                    for r in bad)
                by_seed[seed] = {"no_verdict": reason}
            elif len(digests) != 1:
                by_seed[seed] = {"no_verdict": "trees disagree on work_digest"}
            else:
                by_seed[seed] = {
                    metric["name"]: summarize(
                        {tree: [r["metrics"][metric["name"]]
                                for r in sorted(seed_runs, key=lambda r: r["round"])
                                if r["tree"] == tree]
                         for tree in TREES},
                        metric["better"], metric["bound"])
                    for metric in spec["end_to_end"]
                }
    return out


def _num(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def report(summary: dict) -> list[str]:
    """The verdict lines, one per workload x seed x metric."""
    lines = []
    for workload, by_seed in summary.items():
        for seed, metrics in by_seed.items():
            if "no_verdict" in metrics:
                lines.append(f"{workload} seed {seed}: NO VERDICT ({metrics['no_verdict']})")
                continue
            for name, s in metrics.items():
                m = s["median"]
                n = s["pairs_per_parent"]
                lines.append(
                    f"{workload} seed {seed} {name}: parent {_num(m['parent'])} "
                    f"change {_num(m['change'])} parent2 {_num(m['parent2'])}, "
                    f"wins {s['wins'][0]}/{n} {s['wins'][1]}/{n}, "
                    f"A/A {100 * s['aa_gap']:+.1f}%, parents' IQR {_num(s['parents_iqr'])}"
                    f" -> {s['verdict']}")
    return lines


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
def _git(repo: pathlib.Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def perfbench_run(tree: pathlib.Path, command: list[str], workload: str, seed: int,
                  seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; a crash is a failed run."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=60 + 30 * seconds)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        tail = (done.stderr or done.stdout).strip().splitlines()[-1:]
        return {"correct": False, "error": f"exit {done.returncode}: {' '.join(tail)}"}
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "work_digest": detail["work_digest"],
    }


def round_robin(repo: pathlib.Path, parent: str, change: str, workloads: list[str],
                run, seeds=SEEDS, rounds: int = ROUNDS) -> list[dict]:
    """Every run of the protocol, each as ``run(tree_dir, workload, seed)``.

    The worktrees live in a temporary directory and are removed in a
    ``finally``, so none survives a run that fails or is interrupted.
    """
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="compare-") as scratch:
        dirs = {tree: pathlib.Path(scratch) / tree for tree in TREES}
        added: list[pathlib.Path] = []
        try:
            for tree, commit in zip(TREES, (parent, change, parent)):
                _git(repo, "worktree", "add", "--detach", str(dirs[tree]), commit)
                added.append(dirs[tree])
            shas = {tree: _git(dirs[tree], "rev-parse", "HEAD") for tree in TREES}
            for workload in workloads:
                for seed in seeds:
                    for r in range(rounds):
                        for tree in TREES[r % 3:] + TREES[:r % 3]:
                            load = os.getloadavg()
                            result = run(dirs[tree], workload, seed)
                            runs.append({"workload": workload, "seed": seed, "round": r,
                                         "tree": tree, "sha": shas[tree],
                                         "loadavg": list(load), **result})
                            print(f"  {workload} seed {seed} round {r} {tree}: "
                                  + (f"{result['metrics'].get('ops_per_s', 0):,.1f} ops/s"
                                     if result.get("correct") else "FAILED"),
                                  file=sys.stderr, flush=True)
        finally:
            for path in added:
                subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                               cwd=repo, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=repo, capture_output=True)
    return runs


def interpreter(command: list[str]) -> dict:
    """The cpus, Python and NumPy every run ran under."""
    probe = ("import json, os, platform, numpy; print(json.dumps({'cpus': os.cpu_count(), "
             "'python': platform.python_version(), 'numpy': numpy.__version__}))")
    done = subprocess.run([command[0], "-c", probe], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    # a terminated run unwinds like an interrupted one: the child is
    # killed and the worktrees are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    parent = _git(REPO_ROOT, "rev-parse", "--short", args.parent + "^{commit}")
    change = _git(REPO_ROOT, "rev-parse", "--short", args.change + "^{commit}")
    workloads = args.workload or names
    stamp = interpreter(spec["command"])
    seconds = spec["run_seconds"]
    print(f"compare: {parent} -> {change}, {', '.join(workloads)}, seeds {SEEDS}, "
          f"{ROUNDS} rounds, {seconds} s runs, {stamp['cpus']} cpus", file=sys.stderr)

    runs = round_robin(
        REPO_ROOT, parent, change, workloads,
        lambda tree, workload, seed: perfbench_run(tree, spec["command"], workload,
                                                   seed, seconds))
    for run in runs:
        run.update(stamp)
    summary = judge(runs, spec)
    RECORD.write_text(json.dumps({
        "parent": parent,
        "change": change,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        **stamp,
        "seeds": list(SEEDS),
        "rounds": ROUNDS,
        "run_seconds": seconds,
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    for line in report(summary):
        print(line)
    print(f"runs written to {RECORD.relative_to(REPO_ROOT)}", file=sys.stderr)
    return 1 if any("no_verdict" in metrics for by_seed in summary.values()
                    for metrics in by_seed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
