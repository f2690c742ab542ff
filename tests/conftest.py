import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from snndfe import harness
from snndfe.channel import ChannelConfig


def _counted_decisions(y, model, stats=None):
    """The decisions evaluate_ber counts the errors of on a frame received as y,
    its `stats` passed on."""
    decided = []

    def count_bit_errors(true, decisions, m):
        decided.append(decisions)
        return 0

    frame = np.zeros(y.size, dtype=np.int64), y  # its classes reach only count_bit_errors
    with mock.patch.object(harness, "_eval_frame", lambda *_: frame), \
            mock.patch.object(harness, "count_bit_errors", count_bit_errors):
        harness.evaluate_ber(model, ChannelConfig(), (17.0,), y.size, seed=0, stats=stats)
    return decided[0]


@pytest.fixture(scope="session")
def counted_decisions():
    """_counted_decisions; session-scoped, so hypothesis tests may take it."""
    return _counted_decisions


TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="session")
def blas_digests():
    """tests/blas_digests.py's output, computed once, in a child process on
    OpenBLAS's Haswell kernels and one thread, whatever this process runs on.
    Skipped where OpenBLAS does not report that core: another BLAS, or a
    CPU or build OpenBLAS cannot run those kernels on."""
    pythonpath = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    child = subprocess.run([sys.executable, str(TESTS / "blas_digests.py")], env=env,
                           capture_output=True, text=True, check=False)
    if child.returncode:
        pytest.fail(f"tests/blas_digests.py failed:\n{child.stderr}")
    out = json.loads(child.stdout)
    if out["core"] != "Haswell":
        pytest.skip(f"OpenBLAS reports core {out['core']!r} under OPENBLAS_CORETYPE=Haswell; "
                    "the digests are pinned on its Haswell kernels")
    return out
