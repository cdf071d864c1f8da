"""Print the numeric stack that the tests' pinned bytes depend on.

Float summation order depends on the BLAS build and numpy's SIMD code, so a
failure is read against the stack it ran on. This prints numpy's version and
build, the OpenBLAS kernel picked at run time (unknown when the bundled
library is not found), and numpy's SIMD targets: the baseline, then the
active dispatch targets. With ``--active-dispatch`` it prints only the active
dispatch targets, space-separated, the form NPY_DISABLE_CPU_FEATURES takes.

    python .github/numeric_stack.py [--active-dispatch]
"""
import ctypes
import glob
import os
import sys

import numpy
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

active = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
if sys.argv[1:] == ["--active-dispatch"]:
    print(active)
    sys.exit()
try:
    lib, = glob.glob(os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas*")
    corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    kernel = corename().decode()
except (ValueError, OSError, AttributeError):
    kernel = "unknown"
print(numpy.__version__)
numpy.show_config()
print("OpenBLAS kernel:", kernel)
print("SIMD baseline:", " ".join(__cpu_baseline__))
print("SIMD dispatch:", active)
