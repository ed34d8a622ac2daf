"""The run ledger: one canonical-JSON ``manifest.json`` per invocation.

Every ``tap-repro run`` / ``chaos`` / ``scale-churn`` invocation that
writes artifacts also writes a manifest next to them recording its own
provenance: the git state, the full config and seeds, the environment
(python, cpu count), the rows digests of every table produced, and the
path + SHA-256 of every artifact file.  A BENCH trajectory entry or a
chaos availability number can then always be tied back to the exact
(code, config, seed) that produced it.

Determinism contract
--------------------
Everything in the manifest except the top-level ``"volatile"`` section
is a pure function of (repo state, machine, config, seed) — the
**core**.  Wall time, timestamps, worker counts and the argv spelling
are real provenance but vary run to run, so they live under
``"volatile"`` and are excluded from :func:`manifest_core` and the
``digest`` field.  The gate the CI enforces is therefore:

    same seed, any ``--workers`` value  =>  byte-identical core
    (``canonical_manifest``) and identical ``digest``.

Artifacts whose bytes are *not* deterministic (span traces carry wall
clocks) are flagged ``"volatile": true``; their recorded sha256 is
real but nulled inside the core so it cannot break the contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

from repro.perf.digest import _coerce, canonical_json

SCHEMA = 1


def git_sha(repo_root=None) -> str:
    """Full git commit sha of the working tree, or "unknown"."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or pathlib.Path(__file__).resolve().parents[3],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_entry(path, kind: str, volatile: bool = False,
                   base=None) -> dict:
    """Ledger entry for one written artifact file.

    ``base`` relativises the recorded path (usually the manifest's own
    directory) so a results directory stays relocatable; paths outside
    ``base`` are recorded by name only.
    """
    path = pathlib.Path(path)
    name = str(path)
    if base is not None:
        try:
            name = str(path.resolve().relative_to(
                pathlib.Path(base).resolve()
            ))
        except ValueError:
            name = path.name
    return {
        "path": name,
        "kind": kind,
        "sha256": file_sha256(path),
        "volatile": bool(volatile),
    }


def build_manifest(
    command: str,
    *,
    configs: dict | None = None,
    results: dict | None = None,
    artifacts: list[dict] | None = None,
    seed: int | None = None,
    extra: dict | None = None,
    volatile: dict | None = None,
) -> dict:
    """Assemble a manifest dict (digest filled in by :func:`write_manifest`).

    ``configs`` maps run name -> ``dataclasses.asdict(config)``;
    ``results`` maps run name ->
    ``{"rows": n, "digest": rows_digest, "summary": {...}}``;
    ``artifacts`` is a list of :func:`artifact_entry` dicts.
    """
    return {
        "schema": SCHEMA,
        "command": command,
        "seed": seed,
        "git_sha": git_sha(),
        "environment": {
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
        },
        "configs": configs or {},
        "results": results or {},
        "artifacts": list(artifacts or []),
        "extra": extra or {},
        "volatile": volatile or {},
    }


def manifest_core(manifest: dict) -> dict:
    """The deterministic core: volatile section and digest stripped,
    volatile artifacts' hashes nulled."""
    core = {
        k: v for k, v in manifest.items() if k not in ("volatile", "digest")
    }
    core["artifacts"] = [
        {**a, "sha256": None} if a.get("volatile") else dict(a)
        for a in manifest.get("artifacts", [])
    ]
    return core


def canonical_manifest(manifest: dict) -> str:
    """Canonical JSON of the core — the byte-comparable form."""
    return canonical_json(manifest_core(manifest))


def manifest_digest(manifest: dict) -> str:
    """SHA-256 over the canonical core."""
    return hashlib.sha256(canonical_manifest(manifest).encode()).hexdigest()


def write_manifest(manifest: dict, path) -> dict:
    """Stamp the core digest and write canonical JSON to ``path``.

    The file itself is sorted-key JSON with a fixed layout, so two
    manifests with equal cores differ only inside ``"volatile"``.
    """
    manifest = dict(manifest)
    manifest["digest"] = manifest_digest(manifest)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=_coerce)
        + "\n"
    )
    return manifest


def load_manifest(path) -> dict:
    manifest = json.loads(pathlib.Path(path).read_text())
    if manifest.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {manifest.get('schema')!r}"
        )
    return manifest


def is_manifest(doc) -> bool:
    """Does this parsed JSON document look like a run manifest?"""
    return (
        isinstance(doc, dict)
        and doc.get("schema") == SCHEMA
        and "command" in doc
        and "artifacts" in doc
    )
