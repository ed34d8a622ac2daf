#!/usr/bin/env python
"""Print the canonical digest sheet: the evidence that a change did not
move any published number.

A PR that touches a hot path (or the RNG draw order, or wire bytes)
must show that every experiment still produces the same rows.  This
runs the fast configuration of everything and prints one line per
digest:

* the 17 ``rows digest`` lines of ``tap-repro all --fast`` and
  ``tap-repro extensions --fast``;
* the rows digests of ``tap-repro scale-churn --million`` and
  ``tap-repro scale-latency --million`` (the million-node operating
  points, labelled with their ``--million``), so a change that moves
  every worker count alike still shows;
* sha256 of the chaos smoke report and event trace
  (``chaos --plan smoke --seed 7 --fast``), which are the policy arm's,
  and the report digest of the same run's no-policy baseline arm (from
  the run manifest) — the arm on ``ResiliencePolicy.reactive``;
* sha256 of the ``durability --fast`` CSV.

Usage::

    python tools/digest_sheet.py                 # or: make digests
    python tools/digest_sheet.py | diff results/DIGESTS.txt -

The sheet is committed as ``results/DIGESTS.txt``; CI diffs a fresh
one against it.  Run it on the parent commit and on the change: the two
outputs must be byte-identical, and a sheet that does differ names the
experiment that moved.  Takes ~15 s and writes only to a temporary
directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cli(*args: str) -> str:
    """Run ``tap-repro <args>`` on this checkout's sources; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=ROOT, env=env, check=True, text=True, stdout=subprocess.PIPE,
    )
    return done.stdout


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sheet() -> list[str]:
    lines = [
        line
        for command in ("all", "extensions")
        for line in _cli(command, "--fast").splitlines()
        if "rows digest: " in line
    ]
    lines += [
        line.replace(runner, f"{runner} --million", 1)
        for runner in ("scale-churn", "scale-latency")
        for line in _cli(runner, "--million").splitlines()
        if "rows digest: " in line
    ]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        _cli("chaos", "--plan", "smoke", "--seed", "7", "--fast",
             "--report-out", str(out / "report.json"),
             "--events-out", str(out / "events.jsonl"))
        # read before ``durability`` writes its own manifest.json here
        manifest = json.loads((out / "manifest.json").read_text())
        _cli("durability", "--fast", "--csv", str(out / "durability.csv"))
        lines += [
            f"chaos smoke report sha256: {_sha256(out / 'report.json')}",
            f"chaos smoke events sha256: {_sha256(out / 'events.jsonl')}",
            "chaos smoke baseline digest: "
            + manifest["results"]["chaos-baseline"]["digest"],
            f"durability csv sha256: {_sha256(out / 'durability.csv')}",
        ]
    return lines


if __name__ == "__main__":
    print("\n".join(sheet()))
