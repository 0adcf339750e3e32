"""Every output keeps its bits: the golden manifest recomputed (see golden.py)."""

import json

import golden


def test_outputs_match_the_golden_manifest(experiment_grid, misestimation_grid, tmp_path):
    want = json.loads(golden.MANIFEST.read_text())
    got = golden.manifest(experiment_grid, misestimation_grid, tmp_path)
    assert list(got["digests"]) == list(want["digests"])
    moved = [key for key, digest in want["digests"].items() if got["digests"][key] != digest]
    # A manifest written under another numpy or BLAS may differ in LAPACK's
    # rounding; the environments are named so that a runner can report it.
    assert not moved, (f"outputs moved: {moved}; manifest written on {want['environment']}, "
                       f"recomputed on {got['environment']}")
