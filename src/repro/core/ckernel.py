"""Build-on-first-use loader for the compiled int32 sDTW kernel.

``_sdtw_kernel.c`` (beside this module) is the batched wavefront's fast path
on the all-integer hardware data path (see
:func:`repro.core.sdtw.int32_data_path`). It needs no build step: the first
call that can use it compiles the source with ``cc -O3 -shared -fPIC`` and
loads the library through :mod:`ctypes`, which releases the GIL for the
whole foreign call, so the numpy backend's kernel threads run it in
parallel.

The library is written into ``__pycache__/`` beside the source, named by a
hash of the source and the compile command, so later processes load it
without compiling and an edited source gets a new name. It is written under
a temporary name and moved into place with :func:`os.replace`, so processes
building at once never load a half-written file. A library already there is
loaded even when the directory is read-only; when it is missing and the
directory is not writable, the build goes into a private temporary directory
that is removed as soon as the library is loaded.

Without a working compiler the loader emits one :class:`RuntimeWarning`
naming the error and :func:`load` returns ``None``: every call the kernel
would have run goes to the oracle, :func:`repro.core.sdtw.sdtw_resume` run
per lane and per panel block, which computes the same rows.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

__all__ = ["loaded", "load"]

SOURCE = Path(__file__).with_name("_sdtw_kernel.c")
COMPILER = "cc"
FLAGS = ("-O3", "-shared", "-fPIC")

# Rows and dwell need not be contiguous across rows: the kernel takes their
# row stride, and repro.core.sdtw._advance_batch_int32 checks the columns are.
_STATE = np.ctypeslib.ndpointer(np.int32, ndim=2, flags="WRITEABLE")
_BOOL = np.ctypeslib.ndpointer(np.bool_, ndim=1, flags="C_CONTIGUOUS")
_INT32 = np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
_INT64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_HALO = np.ctypeslib.ndpointer(np.int32, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
_OUT = np.ctypeslib.ndpointer(np.int64, flags=("C_CONTIGUOUS", "WRITEABLE"))


class _Loader:
    """Compiles and loads the kernel once per process, under a lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._attempted = False
        self.function: Optional[Callable[..., None]] = None

    def get(self) -> Optional[Callable[..., None]]:
        if not self._attempted:
            with self._lock:
                if not self._attempted:
                    try:
                        self.function = _bind(_open())
                    except (OSError, subprocess.CalledProcessError) as error:
                        detail = getattr(error, "stderr", None) or error
                        warnings.warn(
                            f"the compiled sDTW kernel is unavailable ({detail}); "
                            "int32 wavefronts run on the numpy oracle instead",
                            RuntimeWarning,
                        )
                    self._attempted = True
        return self.function


_LOADER = _Loader()


def load() -> Optional[Callable[..., None]]:
    """The compiled ``sdtw_advance_int32``, building it on first use.

    ``None`` when no compiler could build it (one ``RuntimeWarning`` said
    why). Its arguments are ``(n_lanes, lanes, restart, n_columns,
    row_stride, rows, dwell, query, offsets, reference, n_blocks,
    block_starts, bonus, cap, halo, costs, ends, magnitudes)``. Lane ``k``
    advances row ``lanes[k]`` of the int32 ``rows`` and ``dwell`` in place
    (``row_stride`` int32 apart) over ``query[offsets[k]:offsets[k + 1]]``,
    from the free start when ``restart[k]`` is set; ``block_starts`` are
    the panel blocks' first columns, and ``halo`` is int32 working space
    with one entry per sample of the longest chunk, which the kernel
    overwrites. It writes lane ``k``'s per-block minimum and block-local
    first argmin into row ``k`` of the ``(n_lanes, n_blocks)`` int64
    ``costs`` and ``ends``, and its ``max |row|`` into ``magnitudes[k]``.
    See ``_sdtw_kernel.c``.
    """
    return _LOADER.get()


def loaded() -> bool:
    """Whether the compiled kernel is loaded in this process (builds nothing)."""
    return _LOADER.function is not None


def _open() -> ctypes.CDLL:
    """The compiled library, compiling it unless a build is cached."""
    command = [COMPILER, *FLAGS]
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(command).encode()).hexdigest()
    name = f"_sdtw_kernel.{digest[:16]}.so"
    cache = SOURCE.parent / "__pycache__"
    if (cache / name).exists():
        return ctypes.CDLL(str(cache / name))
    try:
        cache.mkdir(exist_ok=True)
        writable = os.access(cache, os.W_OK)
    except OSError:
        writable = False
    if writable:
        return ctypes.CDLL(str(_compile(command, cache, name)))
    # The loaded mapping outlives the file, so the private build goes at once.
    private = tempfile.mkdtemp(prefix="repro-sdtw-kernel-")
    try:
        return ctypes.CDLL(str(_compile(command, Path(private), name)))
    finally:
        shutil.rmtree(private, ignore_errors=True)


def _compile(command: List[str], directory: Path, name: str) -> Path:
    """Compile the source to ``directory / name`` through a temporary name."""
    library = directory / name
    partial = directory / f"{name}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        subprocess.run(
            [*command, str(SOURCE), "-o", str(partial)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(partial, library)
    finally:
        if partial.exists():
            partial.unlink()
    return library


def _bind(library: ctypes.CDLL) -> Callable[..., None]:
    function = library.sdtw_advance_int32
    function.argtypes = [
        ctypes.c_int64, _INT64, _BOOL,  # n_lanes, lanes, restart
        ctypes.c_int64, ctypes.c_int64,  # n_columns, row_stride
        _STATE, _STATE,  # rows, dwell
        _INT32, _INT64, _INT32,  # query, offsets, reference
        ctypes.c_int64, _INT64,  # n_blocks, block_starts
        ctypes.c_int32, ctypes.c_int32,  # bonus, cap
        _HALO,  # halo
        _OUT, _OUT, _OUT,  # costs, ends, magnitudes
    ]
    function.restype = None
    return function
