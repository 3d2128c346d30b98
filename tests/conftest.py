"""Hypothesis profiles and the report header for the test suite.

``ci`` derandomizes the property tests, so a CI run explores the same
examples every time and a failure reproduces; select it with
``pytest --hypothesis-profile=ci``. Without it, hypothesis draws fresh
examples on every run. ``ci-deep`` is ``ci`` at 1,000 examples per
property test, for a focused run of a few of them, as CI runs the
window ring, learn step and round-trip property tests.

The header names the numpy version and, when numpy's BLAS is a bundled
OpenBLAS, the core type its kernels were picked for. The state hashes the
golden tests pin depend on that kernel, so a pin that fails on another
machine can be traced from the log.
"""

import ctypes

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("ci-deep", settings.get_profile("ci"),
                          max_examples=1000)


def _openblas_core() -> str | None:
    """The OpenBLAS core name numpy's BLAS reports, or None if it has none."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym on numpy's extension also searches the BLAS it links
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    import numpy as np

    core = _openblas_core()
    return f"numpy {np.__version__}" + (f", OpenBLAS core {core}" if core else "")
