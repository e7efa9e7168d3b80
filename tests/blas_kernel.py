"""The OpenBLAS kernel that numpy's matrix products run on.

The suite's bit-exact pins (the ``verify`` stdout, the harness margins and
the optimizer's search paths) hold per kernel: each kernel orders the sums
in its dot and matrix products its own way, which moves last digits and,
through them, simplex steps.  ``kernel_pins`` picks a test's pins for the
running kernel and fails, naming it, when none were recorded; a pin never
becomes a tolerance.

Run as a script to print the numpy version and the kernel's name:

    python tests/blas_kernel.py
"""

import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_core() -> str:
    """OpenBLAS's name for the kernel it runs, e.g. ``"SkylakeX"``.

    Read through ctypes from the OpenBLAS library bundled in numpy's wheel,
    the one numpy has loaded; ``"unknown"`` when numpy bundles none.
    """
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def kernel_pins(table: dict):
    """The entry of ``table`` recorded for the running OpenBLAS kernel."""
    core = openblas_core()
    if core not in table:
        pytest.fail(
            f"no pins recorded for OpenBLAS kernel {core!r} (numpy {np.__version__}); "
            f"recorded: {', '.join(sorted(table))}",
            pytrace=False,
        )
    return table[core]


if __name__ == "__main__":
    print(f"numpy {np.__version__}, OpenBLAS kernel {openblas_core()}")
