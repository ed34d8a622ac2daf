#!/usr/bin/env python
"""Write the reachability sheet: which ``src/repro`` functions the
product executes, which only the benchmarks or the unit tests reach,
and which nothing reaches at all.

Dead code in this repo has been found by accident, one PR at a time;
this finds it on purpose.  Three phases run under a call-event-only
``sys.settrace`` hook (stdlib only — ``coverage`` is not a dependency):

* **product** — every CLI path (``all`` / ``extensions`` plain, with
  ``--audit --metrics-out --trace-out``, with ``--workers 2``, the
  ``--million`` points, every metrics format, every chaos plan,
  ``durability``, ``trace`` / ``report`` / ``gate``), the ``examples/``,
  ``perfbench/run.py --smoke`` and ``tools/bench_compare.py --quick``;
* **benchmarks** — ``pytest benchmarks/ --benchmark-only``;
* **tests** — the tier-1 suite.

The hook is installed through a ``sitecustomize`` directory prepended
to ``PYTHONPATH``, so subprocesses are covered; pool workers leave
through ``os._exit`` and would skip ``atexit``, so a forked child dumps
from a ``multiprocessing.util.Finalize`` instead.  Each process writes
the ``(file, co_qualname)`` pairs it called; they are matched by
qualname against an ``ast`` walk of the sources (a decorated
function's ``co_firstlineno`` is its decorator's line).

Usage::

    python tools/reach_sheet.py                  # or: make reach

Takes ~5 min, writes ``results/REACHABILITY.txt`` and nothing else
(``benchmarks/results/`` is put back as it was).  The *unreached*
list must stay empty: tier-1's ``tests/test_reach_sheet.py`` fails on a
sheet that names a function there, which is then deleted or given a
caller.  Timing gates fail by design under the
tracer, so their exit status is not checked; every other command must
exit as listed.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHEET = ROOT / "results" / "REACHABILITY.txt"
PHASES = ("product", "benchmarks", "tests")

#: ``sitecustomize.py`` of every traced interpreter.  Returning ``None``
#: from the hook asks for no line events inside the frame: one Python
#: call per function call is the whole overhead.
HOOK = '''\
import atexit, os, sys, threading, time
from multiprocessing import util

_OUT, _SRC = os.environ.get("REACH_OUT"), os.environ.get("REACH_SRC")
if _OUT:
    _seen = set()

    def _hook(frame, event, arg):
        _seen.add(frame.f_code)

    def _dump():
        pairs = sorted({
            (c.co_filename[len(_SRC):], c.co_qualname)
            for c in list(_seen) if c.co_filename.startswith(_SRC)
        })
        with open(os.path.join(_OUT, f"{os.getpid()}-{time.time_ns()}"), "w") as out:
            out.writelines(f"{name}\\t{qual}\\n" for name, qual in pairs)

    atexit.register(_dump)
    # a forked pool worker exits through os._exit: finalizers run, atexit does not
    util.register_after_fork(_hook, lambda _: util.Finalize(None, _dump, exitpriority=0))
    threading.settrace(_hook)
    sys.settrace(_hook)
'''


def defined() -> dict[tuple[str, str], int]:
    """``(file relative to src, qualname) -> lines`` of every ``def``."""
    found: dict[tuple[str, str], int] = {}

    def walk(node: ast.AST, scope: tuple[str, ...], rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, (*scope, child.name), rel)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[rel, ".".join((*scope, child.name))] = child.end_lineno - first + 1
                walk(child, (*scope, child.name, "<locals>"), rel)
            else:
                walk(child, scope, rel)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), (), path.relative_to(SRC).as_posix())
    return found


def commands(tmp: pathlib.Path) -> dict[str, list[tuple[list[str], set[int] | None]]]:
    """Per phase: ``(argv, accepted exit codes)``; ``None`` = a timing
    gate, whose verdict under the tracer means nothing."""
    py = sys.executable
    cli = [py, "-m", "repro.cli"]
    obs = tmp / "obs"
    sys.path.insert(0, str(SRC))
    from repro.faults import NAMED_PLANS

    product: list[tuple[list[str], set[int] | None]] = [
        ([*cli, "all", "--fast", "--outdir", str(tmp / "plain")], {0}),
        ([*cli, "extensions", "--fast", "--outdir", str(tmp / "plain")], {0}),
        ([*cli, "all", "--fast", "--workers", "2", "--assert-deterministic"], {0}),
        ([*cli, "extensions", "--fast", "--workers", "2"], {0}),
        ([*cli, "scale-churn", "--million", "--workers", "2"], {0}),
        ([*cli, "scale-latency", "--million"], {0}),
        ([*cli, "run", "durability", "--fast", "--csv", str(obs / "durability.csv")], {0}),
    ]
    for group in ("all", "extensions"):
        product.append(([
            *cli, group, "--fast", "--audit", "--trace-redact",
            "--metrics-out", str(obs / group / "metrics.json"),
            "--trace-out", str(obs / group / "trace.json"),
        ], {0}))
    for fmt in ("jsonl", "openmetrics"):
        product.append(([
            *cli, "fig6", "--fast", "--metrics-format", fmt,
            "--metrics-out", str(obs / fmt / f"metrics.{fmt}"),
        ], {0}))
    product.append(([*cli, "chaos", "--list-plans"], {0}))
    for name, plan in sorted(NAMED_PLANS.items()):
        product.append(([
            *cli, "chaos", "--plan", name, "--fast", "--workers", "2",
            "--assert-deterministic",
            "--report-out", str(obs / f"chaos-{name}" / "report.json"),
            "--events-out", str(obs / f"chaos-{name}" / "events.jsonl"),
        ], {2} if plan.storage_events else {0}))  # storage plans: durability's
        if plan.storage_events:
            product.append(([*cli, "run", "durability", "--fast", "--plan", name], {0}))
    product += [
        ([*cli, "trace", str(obs / "all" / "trace.json"),
          "--csv", str(obs / "breakdown.csv")], {0}),
        ([*cli, "report", str(obs), "--md", str(tmp / "report.md"),
          "--json", str(tmp / "report.json")], {0}),
        ([*cli, "gate", str(obs), "--slo", str(ROOT / "slo.toml")], {0, 2}),
    ]
    product += [([py, str(path)], {0}) for path in sorted((ROOT / "examples").glob("*.py"))]
    # the smoke pass ends on timing gates too (the unattributed share of
    # a traced op), which the hook inflates
    product += [
        ([py, "perfbench/run.py", "--smoke"], None),
        ([py, "tools/bench_compare.py", "--quick", "--out", str(tmp / "BENCH_core.json")], None),
    ]
    return {
        "product": product,
        "benchmarks": [([py, "-m", "pytest", "-q", "benchmarks", "--benchmark-only"], None)],
        # tests/test_reach_sheet.py checks the sheet this run rewrites,
        # so it cannot pass before the rewrite (and calls nothing in src/)
        "tests": [([py, "-m", "pytest", "-q", "tests",
                    "--ignore", "tests/test_reach_sheet.py"], {0})],
    }


def trace(phase: str, runs, tmp: pathlib.Path) -> set[tuple[str, str]]:
    """Run one phase's commands under the hook; what they called."""
    hook_dir, out = tmp / "hook", tmp / "calls" / phase
    hook_dir.mkdir(exist_ok=True)
    out.mkdir(parents=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ, REACH_OUT=str(out), REACH_SRC=str(SRC) + os.sep)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(hook_dir), str(SRC), env.get("PYTHONPATH")])
    )
    for argv, accepted in runs:
        print(f"[{phase}] {' '.join(argv[1:])}", file=sys.stderr, flush=True)
        done = subprocess.run(
            argv, cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        if accepted is not None and done.returncode not in accepted:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"reach_sheet: exit {done.returncode} from {argv[1:]}")
    return {
        (pathlib.Path(name).as_posix(), qual)
        for dump in out.iterdir()
        for name, qual in (line.split("\t") for line in dump.read_text().splitlines())
    }


def sheet(sizes: dict, called: dict[str, set]) -> str:
    """Every function lands in the first phase that reaches it."""
    where = {
        key: next((p for p in PHASES if key in called[p]), "unreached")
        for key in sizes
    }
    columns = (*PHASES, "unreached")
    lines = [
        "# Functions and methods of src/repro by what executes them "
        "(tools/reach_sheet.py).",
        "# product = CLI paths, examples, perfbench smoke, bench_compare --quick;",
        "# benchmarks / tests = reached only from there; unreached = by nothing.",
        f"{'module':40s} {'defined':>8s} " + " ".join(f"{c:>10s}" for c in columns),
    ]
    by_module: dict[str, list] = {}
    for key in sorted(sizes):
        by_module.setdefault(key[0], []).append(key)
    by_module["total"] = list(sizes)
    for module, keys in by_module.items():
        counts = [sum(where[k] == col for k in keys) for col in columns]
        lines.append(
            f"{module:40s} {len(keys):8d} " + " ".join(f"{n:10d}" for n in counts)
        )
    for col in columns[1:]:
        keys = sorted(k for k in sizes if where[k] == col)
        lines += ["", f"## {col}: {len(keys)} functions, "
                      f"{sum(sizes[k] for k in keys)} lines"]
        lines += [f"{rel}: {qual} ({sizes[rel, qual]})" for rel, qual in keys]
    return "\n".join(lines) + "\n"


def main() -> None:
    if sys.version_info < (3, 11):
        raise SystemExit("reach_sheet: needs Python >= 3.11 (code.co_qualname)")
    kept = ROOT / "benchmarks" / "results"
    with tempfile.TemporaryDirectory() as scratch:
        tmp = pathlib.Path(scratch)
        shutil.copytree(kept, tmp / "benchmarks-results")
        # bench_compare reads its baseline from the file it rewrites
        shutil.copy(ROOT / "BENCH_core.json", tmp / "BENCH_core.json")
        try:
            called = {
                phase: trace(phase, runs, tmp)
                for phase, runs in commands(tmp).items()
            }
        finally:
            shutil.rmtree(kept)
            shutil.copytree(tmp / "benchmarks-results", kept)
        SHEET.write_text(sheet(defined(), called))
    print(f"wrote {SHEET.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
