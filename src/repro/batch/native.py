"""Compiled-kernel probes recorded in benchmark provenance.

Benchmark reports note whether Numba or a compiled
``repro.batch._native_kernel`` extension is importable on the host. No
execution backend runs either; the in-process path is the numpy backend.
"""

from __future__ import annotations

__all__ = ["cython_kernel_available", "numba_available"]


def numba_available() -> bool:
    """Whether the Numba JIT is importable in this interpreter."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def cython_kernel_available() -> bool:
    """Whether a compiled ``repro.batch._native_kernel`` extension is importable."""
    try:
        from repro.batch import _native_kernel  # noqa: F401
    except ImportError:
        return False
    return True
