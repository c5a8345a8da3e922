"""The output contract: each run of `scripts/preset_hashes.py` writes the recorded bytes.

Every run in the script's `RUNS` list goes in-process through
`cli.run_config`, and the sha256 of each of its four output files must
equal the digest recorded in `output_digests.json`. The digests were
recorded with numpy 2.4.6 on scipy-openblas 0.3.31; BLAS picks its kernels
by shape and CPU, so a mismatch message names the numpy and BLAS in use,
to tell a code change from an environment change.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from meritfed.cli import parse_config, run_config

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "preset_hashes", os.path.join(HERE, os.pardir, "scripts", "preset_hashes.py")
)
preset_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_hashes)

with open(os.path.join(HERE, "output_digests.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)


def environment() -> str:
    """numpy's version and its BLAS build, as numpy reports them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    build = blas.get("openblas configuration", "")
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} {build}".strip()


def test_every_run_has_recorded_digests():
    assert sorted(EXPECTED) == sorted(label for label, _, _ in preset_hashes.RUNS)


@pytest.mark.parametrize(
    "label, preset, overrides", preset_hashes.RUNS, ids=[run[0] for run in preset_hashes.RUNS]
)
def test_output_files_match_recorded_digests(label, preset, overrides, tmp_path):
    run_config(parse_config("", preset=preset, overrides=list(overrides)), str(tmp_path))
    digests = dict(zip(preset_hashes.FILES, preset_hashes.file_digests(str(tmp_path))))
    changed = [name for name, digest in digests.items() if digest != EXPECTED[label][name]]
    assert not changed, f"run {label!r}: {', '.join(changed)} changed bytes under {environment()}"
