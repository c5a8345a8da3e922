"""The output contract on a second class of host: the kernels an AVX2-only host picks.

OpenBLAS reads OPENBLAS_CORETYPE and numpy reads NPY_DISABLE_CPU_FEATURES
once, at import, so the check runs in a child process. The child's
OpenBLAS runs its Haswell core on one thread, and numpy dispatches to no
target above X86_V3, the AVX2 level: the variable names each such target
this host enables. No real AVX2-only host has run it. The child runs
three contract runs of `scripts/preset_hashes.py` at their round caps and
reports its environment and each output file's sha256, which must equal
`output_digests_haswell.json`. Run as a script, this file is that child:

    PYTHONPATH=src python3 tests/test_second_host.py LABEL...
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from test_output_contract import blas_core, dispatch_targets, preset_hashes

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_CORE = "Haswell"
AVX2_TARGET = "X86_V3"  # numpy's targets after it in dispatch order are AVX-512 ones

with open(os.path.join(HERE, "output_digests_haswell.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)


def child_report(labels: list[str]) -> dict:
    """This process's dispatch targets and BLAS core, and the output digests of the named contract runs."""
    from meritfed.cli import OUTPUT_FILES, parse_config, run_config

    runs = {label: (preset, overrides) for label, preset, overrides in preset_hashes.RUNS}
    digests = {}
    for label in labels:
        preset, overrides = runs[label]
        with tempfile.TemporaryDirectory() as out:
            run_config(parse_config("", preset=preset, overrides=list(overrides)), out)
            digests[label] = dict(zip(OUTPUT_FILES, preset_hashes.file_digests(out)))
    return {"dispatch": dispatch_targets(), "core": blas_core(), "digests": digests}


def test_contract_runs_match_the_second_digest_set():
    targets = dispatch_targets()
    if targets is None or AVX2_TARGET not in targets:
        pytest.skip(f"numpy dispatches to {targets} here, not to {AVX2_TARGET}")
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=BLAS_CORE,
        OPENBLAS_NUM_THREADS="1",
        NPY_DISABLE_CPU_FEATURES=",".join(targets[targets.index(AVX2_TARGET) + 1 :]),
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    command = [sys.executable, os.path.abspath(__file__), *EXPECTED]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    if report["core"] is None or report["core"][0] != BLAS_CORE:
        pytest.skip(f"the child's OpenBLAS core is {report['core']}, not {BLAS_CORE}")
    if report["dispatch"] != [AVX2_TARGET]:
        pytest.skip(f"the child's numpy dispatches to {report['dispatch']}, not to {AVX2_TARGET} alone")
    changed = [
        f"{label}: {name}"
        for label, digests in report["digests"].items()
        for name, digest in digests.items()
        if digest != EXPECTED[label][name]
    ]
    assert not changed, f"changed bytes on the {BLAS_CORE} core with numpy at {AVX2_TARGET}: {', '.join(changed)}"


if __name__ == "__main__":
    print(json.dumps(child_report(sys.argv[1:])))
