"""The output contract: each run of `scripts/preset_hashes.py` writes the recorded bytes.

Every run in the script's `RUNS` list goes in-process through
`cli.run_config`, and the sha256 of each of its output files must equal
the digest recorded in `output_digests.json`. The digests were recorded
with numpy 2.4.6 on scipy-openblas 0.3.31, on a CPU where numpy dispatches
to its AVX-512 targets and OpenBLAS runs its SkylakeX core on 2 threads.
numpy and BLAS pick their kernels by CPU, and BLAS also by shape and
thread count, so a mismatch message names what is in use, to tell a code
change from an environment change.
"""

import ctypes
import glob
import importlib.util
import json
import os
from typing import Optional

import numpy as np
import pytest

from meritfed.cli import OUTPUT_FILES, parse_config, run_config

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "preset_hashes", os.path.join(HERE, os.pardir, "scripts", "preset_hashes.py")
)
preset_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_hashes)

with open(os.path.join(HERE, "output_digests.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)


def dispatch_targets() -> Optional[list[str]]:
    """The SIMD targets numpy dispatches to on this host, in numpy's order; None if numpy does not say."""
    try:
        from numpy._core import _multiarray_umath

        features = _multiarray_umath.__cpu_features__
        return [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    except (ImportError, AttributeError):
        return None


def blas_core() -> Optional[tuple[str, int]]:
    """The core and thread count of the OpenBLAS numpy has loaded; None if it does not say."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
    try:  # the library numpy has loaded, so the same core and thread pool
        blas = ctypes.CDLL(glob.glob(pattern)[0])
        blas.scipy_openblas_get_corename64_.argtypes = blas.scipy_openblas_get_num_threads64_.argtypes = []
        blas.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        return blas.scipy_openblas_get_corename64_().decode(), blas.scipy_openblas_get_num_threads64_()
    except (IndexError, OSError, AttributeError):
        return None


def environment() -> str:
    """numpy's version and the SIMD targets it dispatches to, and the core and threads its OpenBLAS runs."""
    dispatch, core = dispatch_targets(), blas_core()
    dispatch = "unknown" if dispatch is None else ", ".join(dispatch) or "none"
    core = "unknown" if core is None else f"{core[0]} on {core[1]} threads"
    return f"numpy {np.__version__} dispatching {dispatch}, OpenBLAS core {core}"


def test_every_run_has_recorded_digests():
    assert sorted(EXPECTED) == sorted(label for label, _, _ in preset_hashes.RUNS)


@pytest.mark.parametrize(
    "label, preset, overrides", preset_hashes.RUNS, ids=[run[0] for run in preset_hashes.RUNS]
)
def test_output_files_match_recorded_digests(label, preset, overrides, tmp_path):
    run_config(parse_config("", preset=preset, overrides=list(overrides)), str(tmp_path))
    digests = dict(zip(OUTPUT_FILES, preset_hashes.file_digests(str(tmp_path))))
    changed = [name for name, digest in digests.items() if digest != EXPECTED[label][name]]
    assert not changed, f"run {label!r}: {', '.join(changed)} changed bytes under {environment()}"
