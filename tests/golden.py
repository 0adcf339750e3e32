"""The golden manifest: sha256 digests of the package's outputs on fixed inputs.

``tests/golden.json`` holds one digest per output, and
``tests/test_golden.py`` recomputes them, so a change that moves any bit
of an output fails tier-1.  The outputs are:

- every run of the ``experiment_grid`` and ``misestimation_grid`` session
  fixtures, one digest per (problem, level, mode) over the seeds: every
  ``IterateRecord`` field of every row (``repr`` in field order, an array
  as the ``repr`` of its list), the status and the final x;
- ``tables`` and ``misest`` on a small plan through ``cli.dispatch``, as
  JSON and as text;
- the README's ``solve`` runs (stdout, stderr and exit code) and its two
  ``trace`` CSVs, as the CI workflow runs them.

The manifest also records the numpy version, Python version and machine
it was written on; LAPACK may round differently under another BLAS build.
To record a deliberate change of outputs, rewrite the manifest with

    PYTHONPATH=src python tests/golden.py

and give the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import platform
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

import helpers
from noisy_sqp.cli import dispatch
from noisy_sqp.solver import IterateRecord

MANIFEST = Path(__file__).with_name("golden.json")

_FIELDS = [f.name for f in fields(IterateRecord)]
_ROW = operator.attrgetter(*_FIELDS)
_X = _FIELDS.index("x")  # the one array field

# The small plan of the tables and misest outputs.
_PLAN_FLAGS = ["--problems", "HS7,BT11", "--eps-levels", "1e-3,1e-1", "--seeds", "0,1"]
_CLI_RUNS = {
    "tables json": ["tables", *_PLAN_FLAGS, "--kmax", "20,50", "--format", "json"],
    "tables text": ["tables", *_PLAN_FLAGS, "--kmax", "20,50"],
    "misest json": ["misest", *_PLAN_FLAGS, "--format", "json"],
    "misest text": ["misest", *_PLAN_FLAGS],
    "solve HS7 seed 4": ["solve", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3",
                         "--seed", "4"],
    "solve HS7 seed 2**32": ["solve", "--problem", "HS7", "--seed", "4294967296"],
    "solve HS7 classical": ["solve", "--problem", "HS7", "--eps1", "1e-5", "--eps2", "1e-5",
                            "--no-relaxation", "--seed", "1"],
    "solve BT11 singular": ["solve", "--problem", "BT11", "--eps1", "1e-3", "--eps2", "1e-3",
                            "--beta", "0.01", "--seed", "2"],
    "solve HS7 overflow": ["solve", "--problem", "HS7", "--eps1", "1e-3", "--eps2", "1e-3",
                           "--beta", "1e-100", "--seed", "0"],
}
_TRACES = {
    "trace BT11 1000 iters": ["trace", "--problem", "BT11", "--eps1", "1e-3", "--eps2", "1e-3",
                              "--iters", "1000", "--out", "bt11.csv"],
    "trace BT11 20 iters": ["trace", "--problem", "BT11", "--eps1", "1e-3", "--eps2", "1e-3",
                            "--iters", "20", "--out", "trace_BT11_eps0.001_seed0.csv"],
}


def _run_text(result) -> str:
    """The repr of every row's fields in field order, x as a list, then the status and final x."""
    rows = []
    for row in result.trace:
        values = list(_ROW(row))
        values[_X] = row.x.tolist()  # an array's own repr rounds to 8 digits
        rows.append(values)
    return repr((rows, result.status.value, result.x.tolist()))


def _digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def grid_digests(experiment_grid, misestimation_grid) -> dict[str, str]:
    """One digest per (problem, level, mode) of the fixtures' runs, over the seeds in order."""
    groups: dict[str, list[str]] = {}
    for (name, eps1, _), entry in experiment_grid["runs"].items():
        for mode, result in (("classical", entry.disabled), ("relaxed", entry.enabled)):
            groups.setdefault(f"grid {name} eps={eps1!r} {mode}", []).append(_run_text(result))
    eps1 = min(helpers.PLAN.eps_levels)[0]  # the misestimation grid's one level
    for (name, _, mult), (result, _) in misestimation_grid.items():
        groups.setdefault(f"misest {name} eps={eps1!r} x{mult!r}", []).append(_run_text(result))
    return {key: _digest(*texts) for key, texts in groups.items()}


def cli_digests(work_dir: Path) -> dict[str, str]:
    """Digests of the CLI outputs: exit code, stdout and stderr; a trace's CSV bytes."""
    digests = {}
    for key, argv in _CLI_RUNS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        digests[key] = _digest(f"exit {code}\n", out.getvalue(), "\0", err.getvalue())
    for key, argv in _TRACES.items():
        path = Path(work_dir) / argv[-1]
        with contextlib.redirect_stdout(io.StringIO()):  # it prints the path it wrote
            code = dispatch([*argv[:-1], str(path)])
        digests[key] = _digest(f"exit {code}\n", path.read_bytes())
    return digests


def manifest(experiment_grid, misestimation_grid, work_dir: Path) -> dict:
    return {"environment": {"numpy": np.__version__, "python": platform.python_version(),
                            "machine": platform.machine()},
            "digests": {**grid_digests(experiment_grid, misestimation_grid),
                        **cli_digests(work_dir)}}


def main() -> int:
    with tempfile.TemporaryDirectory() as work_dir:
        doc = manifest(helpers.relaxation_grid(), helpers.misestimation_grid(), Path(work_dir))
    MANIFEST.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
