#!/usr/bin/env python3
"""perfbench: the end-to-end TAP request benchmark with a per-layer ledger.

One workload, one process (what the driver of ``BENCHMARK.json`` runs)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload is run in a fresh
interpreter, untraced and then traced, and the ledger is written to
``perfbench/out/ledger.json``; ``--record`` also stores it as
``perfbench/LEDGER.json`` and regenerates the ledger section of
``perfbench/README.md``.  ``--aa`` runs the untraced suite twice and
fails unless the two agree within the bounds of ``BENCHMARK.json``.

Method (see ``perfbench/README.md``): closed loop, one thread, simulated
network; untimed set-up and warm-up, then segments of a fixed operation
count, so that two versions of the program do identical work.
``--seconds`` chooses how many segments are run, not how long one lasts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: a segment's operation count is sized to about this long on the reference box
SEGMENT_SECONDS = 0.375
#: a run whose segments differ by more than this is not recorded
MAX_SEGMENT_SPREAD = 0.25
MAX_UNATTRIBUTED = 0.03


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def leaf(args, spec: dict) -> int:
    """Measure one workload here and print the result line."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so set/dict orders — and with them the
        # exact work done — repeat from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: nothing to measure, {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from ledger import PER_LAYER
    from measure import measure_traced, measure_untraced
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.trace:
        run, metrics, detail = measure_traced(
            cls, args.seed, args.smoke, OUT / f"trace-{args.workload}-{args.seed}.json")
        units = PER_LAYER
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        segments = 4 if args.smoke else max(8, round(args.seconds / SEGMENT_SECONDS))
        run, metrics, detail = measure_untraced(cls, args.seed, args.smoke, segments)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        wanted = list(units)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"segments={len(run.digests)} ops/segment={run.workload.segment_ops}")
    for name in wanted:
        print(f"{name:36s} {metrics[name]:16.4f} {units[name]}")
    detail.update(work_digest=run.digests[-1], digests=run.digests)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


# ----------------------------------------------------------------------
# every workload, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_leaf(workload: str, args, trace: int):
    """Run one workload in a child interpreter; returns (result, detail)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"perfbench: {workload} (trace={trace}) exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail: "))
    if not result["correct"]:
        raise SystemExit(
            f"perfbench: {workload}: {result['failed']} of {result['attempted']} operations failed"
        )
    return result, detail


def stamp(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
        "loadavg": list(os.getloadavg()),
    }


def untraced_suite(args, spec: dict) -> dict:
    """{workload: {"end_to_end": {name: value}, "work_digest", "digests", …}}"""
    suite = {}
    for workload in (w["name"] for w in spec["workloads"]):
        result, detail = run_leaf(workload, args, trace=0)
        suite[workload] = {
            "end_to_end": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"],
            "failed": result["failed"],
            **detail,
        }
        print_metrics(workload, result["metrics"])
    return suite


def print_metrics(workload: str, metrics: dict) -> None:
    print(f"\n== {workload}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:16.4f} {metric['unit']}")


def suite(args, spec: dict) -> int:
    ledger = {"stamp": stamp(args), "workloads": untraced_suite(args, spec)}
    problems = []
    for workload, entry in ledger["workloads"].items():
        result, detail = run_leaf(workload, args, trace=1)
        print_metrics(workload + " (traced)", result["metrics"])
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["layer_self_us_per_op"] = detail["layer_self_us_per_op"]
        # Same seed, same code: the traced run must have done the same
        # work as the untraced one, segment for segment.
        shared = min(len(entry["digests"]), len(detail["digests"]))
        if entry["digests"][:shared] != detail["digests"][:shared]:
            problems.append(f"{workload}: work digest differs between untraced and traced run")
        if entry["driver.segment_spread_frac"] > MAX_SEGMENT_SPREAD and not args.smoke:
            problems.append(
                f"{workload}: segments spread {entry['driver.segment_spread_frac']:.2f} "
                f"> {MAX_SEGMENT_SPREAD} — too noisy to record"
            )
        if entry["per_layer"]["driver.unattributed_frac"] > MAX_UNATTRIBUTED:
            problems.append(f"{workload}: unattributed time above {MAX_UNATTRIBUTED}")
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    if problems:
        return 1
    OUT.mkdir(exist_ok=True)
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nledger written to {OUT / 'ledger.json'}")
    if args.record:
        from report import record

        record(ledger, spec)
    return 0


def aa(args, spec: dict) -> int:
    """A/A self-check: the same code twice must agree within the bounds."""
    first = untraced_suite(args, spec)
    second = untraced_suite(args, spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = 0
    print(f"\n{'workload':16s} {'metric':14s} {'A':>14s} {'B':>14s} {'B/A':>8s} {'bound':>6s}")
    for workload in first:
        for name, bound in bounds.items():
            a = first[workload]["end_to_end"][name]
            b = second[workload]["end_to_end"][name]
            ok = abs(b / a - 1.0) <= bound
            failures += not ok
            print(f"{workload:16s} {name:14s} {a:14.4f} {b:14.4f} {b / a:8.4f} {bound:6.2f}"
                  + ("" if ok else "  <-- outside bound"))
        if first[workload]["work_digest"] != second[workload]["work_digest"]:
            failures += 1
            print(f"{workload:16s} work_digest differs between the two runs")
    print("A/A " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed counts: checks the harness, measures nothing")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.workload:
        return leaf(args, spec)
    if args.aa:
        return aa(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
