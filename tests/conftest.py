"""Shared fixtures: every test that draws randomness is seeded here.

OpenBLAS is pinned to one thread, the count the benchmark runs with, before
numpy loads: the n = 60 golden report's residual digits depend on how many
threads a matrix product is split over.
"""
import os
import pathlib
import sys

assert "numpy" not in sys.modules, "numpy was imported before the OpenBLAS thread pin"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def child_env():
    """Environment for a `python -m hyperlab` child: src/ first on its PYTHONPATH,
    since pytest's pythonpath option reaches only the test process."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
