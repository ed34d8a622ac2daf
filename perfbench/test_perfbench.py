"""Self-tests of the benchmark harness (not of the program).

Run with ``python -m pytest perfbench -q``; tier-1's ``testpaths`` does
not collect this file.  Everything runs in ``--smoke`` mode: tiny fixed
counts that exercise every code path and measure nothing.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = ["session_small", "retrieve_bulk", "session_churn", "emu_transfer", "scale_tunnels"]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def leaf(workload: str, seed: int, trace: int = 0):
    done = run("--workload", workload, "--seed", str(seed), "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail: "))


@pytest.fixture(scope="module")
def ledger():
    """One smoke run of the whole suite (untraced, then traced)."""
    done = run("--smoke", "--seed", "11")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((HERE / "out" / "ledger.json").read_text())


def test_spec_names_and_limits():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(sorted(m) == ["better", "name", "unit"] for m in SPEC["per_layer"])


def test_every_metric_for_every_workload(ledger):
    assert list(ledger["workloads"]) == WORKLOADS
    for workload, entry in ledger["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, workload
        assert list(entry["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(math.isfinite(v) and v > 0 for v in entry["end_to_end"].values()), workload
        assert list(entry["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        assert all(math.isfinite(v) for v in entry["per_layer"].values()), workload


def test_layers_account_for_the_traced_time(ledger):
    for workload, entry in ledger["workloads"].items():
        layers = entry["layer_self_us_per_op"]
        traced = entry["per_layer"]["driver.traced_us_per_op"]
        assert entry["per_layer"]["driver.unattributed_frac"] <= 0.03, workload
        assert sum(layers.values()) == pytest.approx(
            traced * (1 - entry["per_layer"]["driver.unattributed_frac"]))


def test_workloads_load_the_layers_they_claim(ledger):
    per_layer = {w: e["per_layer"] for w, e in ledger["workloads"].items()}
    assert per_layer["session_churn"]["pastry.route_us_per_op"] \
        >= 5 * per_layer["session_small"]["pastry.route_us_per_op"]
    assert per_layer["retrieve_bulk"]["crypto.sym_bytes_per_op"] \
        >= 100 * per_layer["session_small"]["crypto.sym_bytes_per_op"]
    assert per_layer["session_churn"]["pastry.membership_events"] > 0
    assert per_layer["emu_transfer"]["simnet.events_per_op"] > 0
    scale = ledger["workloads"]["scale_tunnels"]["layer_self_us_per_op"]
    assert scale["perf"] > 0.9 * sum(scale.values())


@pytest.mark.parametrize("workload", ["session_churn", "scale_tunnels"])
def test_digest_repeats_per_seed_and_differs_across_seeds(ledger, workload):
    result, detail = leaf(workload, seed=11)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert detail["digests"] == ledger["workloads"][workload]["digests"]
    _, other = leaf(workload, seed=12)
    assert other["work_digest"] != detail["work_digest"]


def test_tracer_is_fully_removed():
    import repro.core.forwarding as forwarding
    import repro.crypto.onion as onion
    from ledger import TARGETS
    from tracer import Tracer
    from workloads import WORKLOADS as classes

    targets = TARGETS + classes["emu_transfer"].extra_targets
    before = [
        (owner, attr, vars(owner)[attr]) for _, owner, attr, _ in targets
    ] + [(forwarding, "peel_layer", forwarding.peel_layer)]
    tracer = Tracer()
    tracer.phase("timed")
    tracer.install(targets)
    assert all(vars(owner)[attr] is not original for owner, attr, original in before)
    assert forwarding.peel_layer is onion.peel_layer  # one wrapper per function
    onion.make_fake_onion(random.Random(1))
    assert tracer.totals["timed"]["crypto.onion_build"][0] == 1
    tracer.remove()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload", "session_small", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
