"""Print, as JSON, the pinned digests that depend on OpenBLAS's kernels.

simulate_link's convolutions (np.convolve's dot products) and train()'s
matrix products run through the OpenBLAS kernel family it picks for the CPU,
and the families sum in different orders, so the last bits of their outputs,
and the SHA-256 digests test_channel.py and test_train.py pin, differ from one
family to another. conftest.py's `blas_digests` fixture runs this file once
per session with OPENBLAS_CORETYPE=Haswell, the family OpenBLAS picks on
x86-64 without AVX-512, and OPENBLAS_NUM_THREADS=1, so the pinned digests
hold on any x86-64 runner. By hand:

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/blas_digests.py
"""

import ctypes
import json
from pathlib import Path

from test_channel import GOLDEN_LINK, link_digests
from test_train import TRAIN_DIGESTS, train_digests

_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


def openblas_core():
    """The kernel family the loaded OpenBLAS reports, or None where no library
    mapped into this process reports one (another BLAS, or no /proc)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1]})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


if __name__ == "__main__":
    print(json.dumps({"core": openblas_core(),
                      "link": {repr(case): link_digests(*case) for case in GOLDEN_LINK},
                      "train": {mode: train_digests(mode) for mode in TRAIN_DIGESTS}}))
