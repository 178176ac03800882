"""Shared backend detection and build plumbing for the compiled kernels.

Four modules ship an optional compiled kernel with the same three-backend
contract — :mod:`repro.tcp._compiled` (chunk downloads),
:mod:`repro.abr._decisions` (ABR decisions), :mod:`repro.player._fused`
(whole sessions) and :mod:`repro.core._kernels` (abduction) — and each
used to carry its own copy of the feature detection.  This module owns the
shared pieces:

* **numba detection** (:data:`HAVE_NUMBA`, :func:`maybe_jit`) — when numba
  is importable every kernel's Python mirror is JIT-compiled with
  ``njit(cache=True)``;
* **cc + cffi builds** (:func:`build_cc_lib`, :class:`CcLibrary`) — when
  numba is absent but a C compiler and cffi are present, each kernel's
  line-for-line C transcription is compiled once per source hash into a
  small shared library (cached under ``$REPRO_COMPILED_CACHE`` or a
  package-local ``_ccache`` directory) and loaded through cffi's ABI mode.
  The flags disable FMA contraction and fast-math so every float64
  operation is the same correctly-rounded IEEE-754 op the Python mirror
  performs, in the same order;
* **backend naming** (:func:`resolve_backend`) — the canonical tier names
  ``"numba"`` / ``"cc"`` / ``"python"`` every kernel module's
  ``backend()`` reports, pinned consistent across modules by
  ``tests/test_abduction_kernel.py``;
* **degrade reporting** (:func:`warn_fallback`) — the once-per-process
  ``RuntimeWarning`` a stage emits when a caller asked for its
  ``"compiled"`` tier by name and no backend can serve it.

Each kernel module keeps its own ``FORCE_PYTHON`` flag (tests monkeypatch
them independently) and its own dispatchers; only the detection and build
machinery lives here.

Kernel contract
---------------

Every kernel module carries four coupled artefacts that must stay in
lockstep — ``repro lint`` (:mod:`repro.analysis`) enforces this shape
statically, and the rules below are the written form of what it checks:

1. **``_CDEF``** — the cffi declaration string.  It is the single source
   of truth for kernel names, parameter names, parameter order and C
   types.  Pointer parameters are the data buffers; scalar parameters
   are hoisted to wherever the C signature wants them.
2. **The C source** — a line-for-line transcription whose function
   definitions must repeat the ``_CDEF`` parameter lists *exactly*
   (same names, same order, same types; rule ``KM102``).  It is always
   built with :data:`CC_FLAGS`, i.e. ``-fno-fast-math
   -ffp-contract=off`` (rule ``NUM202``), so each double operation is
   the same correctly-rounded IEEE-754 op the mirror performs.
3. **The Python mirror** (``_<kernel>_mirror``) — the reference
   implementation, optionally JIT-compiled via :func:`maybe_jit`.  Its
   parameter names must all be declared in ``_CDEF`` and its pointer
   parameters must appear in the declared relative order (scalars may
   sit anywhere or be omitted; rule ``KM104``).  Mirror bodies must not
   call ``sum``/``math.fsum`` (reassociating reductions diverge from
   the C transcription; rule ``NUM201``).
4. **The dispatcher** — the public function that routes to
   ``lib.<kernel>(...)`` or the mirror depending on the backend and the
   module's ``FORCE_PYTHON`` escape hatch (rules ``KM101``/``KM105``).
   Its compiled-path call must pass exactly the declared arguments,
   with ``from_buffer`` casts whose dtypes match the pointer types
   (``double *`` ↔ ``"double[]"``, ``long long *`` ↔
   ``"long long[]"``; rule ``KM103``).

Supporting pragmas (all comments, all checked by ``repro lint``):
``# repro: scratch`` marks a function allocation-free (no
``np.zeros``/``np.empty``/... in the body), ``# repro: pool-worker``
marks a supervisor-dispatched worker (no ``global`` mutation),
``# repro: kernel-module`` opts a module outside ``repro.{core,tcp,
player,abr}`` into the no-ambient-entropy rule.  A finding that is a
deliberate exception is silenced line-scoped with
``# repro: ignore[RULE1,RULE2] -- reason``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import warnings

__all__ = [
    "HAVE_NUMBA",
    "HAVE_CFFI",
    "BACKEND_NAMES",
    "CC_FLAGS",
    "CcLibrary",
    "build_cc_lib",
    "cc_compiler",
    "maybe_jit",
    "resolve_backend",
    "warn_fallback",
]

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the offline image lacks numba
    njit = None
    HAVE_NUMBA = False

try:
    import cffi

    HAVE_CFFI = True
except ImportError:  # pragma: no cover - cffi ships with the image
    cffi = None
    HAVE_CFFI = False

BACKEND_NAMES = ("python", "numba", "cc")
"""Canonical tier names every kernel module's ``backend()`` may report."""

CC_FLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]
"""No fast-math, no FMA contraction: every double op stays the
correctly-rounded IEEE-754 operation the Python mirrors perform."""


def maybe_jit(fn):
    """``njit(cache=True)`` when numba is importable, identity otherwise."""
    if HAVE_NUMBA:  # pragma: no cover - exercised only when numba is installed
        return njit(cache=True)(fn)
    return fn


def cc_compiler() -> str | None:
    """Path of the system C compiler, or ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> str:
    env = os.environ.get("REPRO_COMPILED_CACHE")
    if env:
        return env
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ccache")


def build_cc_lib(stem: str, cdef: str, source: str):
    """Compile ``source`` once per content hash and dlopen it via cffi.

    Shared build helper for every cc+cffi kernel in the package.  Returns
    ``(lib, ffi)`` or ``None``; any failure — no compiler, no cffi, an
    unwritable cache dir, a compile error — is swallowed so callers can
    fall back to their Python mirrors.
    """
    if not HAVE_CFFI:
        return None
    cc = cc_compiler()
    if cc is None:
        return None
    try:
        tag = hashlib.sha256(source.encode()).hexdigest()[:16]
        cache = _cache_dir()
        os.makedirs(cache, exist_ok=True)
        so_path = os.path.join(cache, f"{stem}_{tag}.so")
        if not os.path.exists(so_path):
            src_path = os.path.join(cache, f"{stem}_{tag}.c")
            with open(src_path, "w", encoding="utf-8") as f:
                f.write(source)
            tmp_path = f"{so_path}.tmp{os.getpid()}"
            subprocess.run(
                [cc, *CC_FLAGS, "-o", tmp_path, src_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, so_path)  # atomic under concurrent builds
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        return ffi.dlopen(so_path), ffi
    except Exception:
        return None


class CcLibrary:
    """Build-once holder for one kernel module's cc+cffi shared library.

    Replaces the per-module ``_cc_state`` dicts: the first :meth:`load`
    triggers the (hash-cached) build, and the outcome — including a failed
    build — is remembered for the life of the process.
    """

    def __init__(self, stem: str, cdef: str, source: str):
        self.stem = stem
        self.cdef = cdef
        self.source = source
        self.tried = False
        self.lib = None
        self.ffi = None

    def load(self):
        """The dlopened library, building it on first call, or ``None``."""
        if self.tried:
            return self.lib
        self.tried = True
        built = build_cc_lib(self.stem, self.cdef, self.source)
        if built is not None:
            self.lib, self.ffi = built
        return self.lib


def resolve_backend(force_python: bool, cc_library: CcLibrary) -> str:
    """The canonical backend name for one kernel module's current state.

    Preference order is identical across every kernel module: the
    ``FORCE_PYTHON`` test hook wins, then numba, then a buildable cc
    library, then the plain Python mirror.
    """
    if force_python:
        return "python"
    if HAVE_NUMBA:  # pragma: no cover - exercised only when numba is installed
        return "numba"
    if cc_library.load() is not None:
        return "cc"
    return "python"


_WARNED: set[str] = set()
"""Requests :func:`warn_fallback` has already reported (clear to re-arm)."""


def warn_fallback(requested: str, effective: str) -> None:
    """Warn (once per process per ``requested``) that a compiled tier degraded.

    The degrade itself is by design — every tier keeps the parity
    contract — but a caller who named the compiled tier explicitly should
    see the effective tier in their logs.  Default-tier callers degrade
    silently and never reach this helper.
    """
    if requested in _WARNED:
        return
    _WARNED.add(requested)
    warnings.warn(
        f"{requested} requested but no compiled backend (numba or cc+cffi) "
        f'is available; falling back to the "{effective}" tier (same '
        "results, reduced throughput). This warning is emitted once per "
        "process.",
        RuntimeWarning,
        stacklevel=3,
    )
