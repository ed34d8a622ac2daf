"""What importing the package costs every process: no third-party module
beyond numpy may ride in on ``import repro`` or the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""

#: multiprocessing registers ``__main__`` a second time under this name
_ALIASES = {"__mp_main__"}


def test_import_loads_only_stdlib_numpy_and_repro():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    loaded = set(json.loads(out))
    foreign = loaded - set(sys.stdlib_module_names) - {"numpy", "repro"} - _ALIASES
    assert not foreign, f"import repro, repro.cli loads {sorted(foreign)}"
    assert {"numpy", "repro"} <= loaded
