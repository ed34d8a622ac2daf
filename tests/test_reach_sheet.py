"""The committed reachability sheet matches the sources it describes.

``results/REACHABILITY.txt`` is written by ``make reach``
(``tools/reach_sheet.py``), which traces the whole product, benchmark
and test surface and takes minutes.  This check is static: it re-walks
the sources with the tool's own ``defined()`` and fails when a function
was added, deleted or resized since the sheet was last regenerated.
"""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHEET = ROOT / "results" / "REACHABILITY.txt"
ENTRY = re.compile(r"^(?P<file>\S+\.py): (?P<qual>\S+) \((?P<lines>\d+)\)$")
SECTION = re.compile(r"^## (?P<col>\w+): (?P<count>\d+) functions, (?P<lines>\d+) lines$")


@pytest.fixture(scope="module")
def defined():
    spec = importlib.util.spec_from_file_location(
        "reach_sheet", ROOT / "tools" / "reach_sheet.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.defined()


@pytest.fixture(scope="module")
def sheet():
    """``module -> [defined, product, benchmarks, tests, unreached]``
    and, per listing, ``((column, count, lines), [(file, qualname,
    lines)])``."""
    rows, sections, entries = {}, [], []
    in_table = False
    for line in SHEET.read_text().splitlines():
        if line.startswith("module "):
            in_table = True
        elif in_table and line.strip():
            name, *counts = line.split()
            rows[name] = [int(c) for c in counts]
        elif (m := SECTION.match(line)) is not None:
            in_table = False
            sections.append((m["col"], int(m["count"]), int(m["lines"])))
            entries.append([])
        elif (m := ENTRY.match(line)) is not None:
            entries[-1].append((m["file"], m["qual"], int(m["lines"])))
        else:
            in_table = False
    return rows, list(zip(sections, entries))


def test_module_rows_match_the_sources(defined, sheet):
    rows, _ = sheet
    per_module: dict[str, int] = {}
    for rel, _ in defined:
        per_module[rel] = per_module.get(rel, 0) + 1
    total = rows.pop("total")
    assert {m: r[0] for m, r in rows.items()} == per_module
    assert total[0] == len(defined)
    for module, (n, *split) in [*rows.items(), ("total", total)]:
        assert sum(split) == n, module


def test_listed_functions_exist_with_their_sizes(defined, sheet):
    _, sections = sheet
    assert sections, "no function lists in the sheet"
    for (col, count, lines), entries in sections:
        assert len(entries) == count, col
        assert sum(n for *_, n in entries) == lines, col
        for rel, qual, n in entries:
            assert defined.get((rel, qual)) == n, f"{col}: {rel}: {qual} ({n})"


def test_nothing_is_unreached(sheet):
    """Every function in ``src/repro`` is executed by the product, the
    benchmarks or the tests: one that nothing calls is deleted, not
    listed."""
    _, sections = sheet
    unreached = {col: entries for (col, *_), entries in sections}["unreached"]
    assert unreached == [], unreached
