"""Compiled kernel backend: the batched NTT in C, loaded through ctypes.

``ntt.c`` (next to this module) holds the batched negacyclic forward and
inverse transforms with Harvey's lazy Shoup butterflies; see its header.
Only the two transforms are compiled — the element-wise kernels keep the
:class:`~repro.fhe.kernels.base.KernelBackend` numpy versions.

The source is compiled with the system C compiler (``-O2 -shared -fPIC``,
never ``-march=native``, so a cached library runs on any host of the same
architecture) into a per-user cache directory, under a file name keyed by
the hash of the source, the flags and the machine type.  The build writes
a temporary file and ``os.replace``-s it into place, so processes
compiling at once cannot observe a half-written library.  :func:`load` is
called once when :mod:`repro.fhe.kernels` is imported — never inside a
timed region — and returns ``None`` (with :data:`unavailable_reason` set)
when no compiler is found or the build or load fails.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..modmath import MAX_MODULUS
from ..ntt import count_transform, get_ntt_context
from .base import KernelBackend

_U64 = np.uint64
SOURCE = Path(__file__).with_name("ntt.c")
FLAGS = ("-O2", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")

#: Why the library is unavailable (``None`` once :func:`load` succeeded).
unavailable_reason: str | None = None


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else a temp dir —
    the first one that exists or can be created and is writable."""
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        candidates.append(Path(xdg) / "repro")
    candidates.append(Path(os.path.expanduser("~")) / ".cache" / "repro")
    candidates.append(Path(tempfile.gettempdir()) / f"repro-{os.getuid()}")
    for directory in candidates:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(directory, os.W_OK):
            return directory
    raise OSError("no writable cache directory for the compiled NTT")


def library_path() -> Path:
    """Cached shared-library path for this source, flag set and machine."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(platform.machine().encode())
    return cache_dir() / f"repro_ntt-{digest.hexdigest()[:16]}.so"


def build() -> Path:
    """Compile ``ntt.c`` unless the cached library exists; return its path."""
    target = library_path()
    if target.exists():
        return target
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        raise OSError(f"no C compiler found (tried {', '.join(_COMPILERS)})")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise OSError(f"{compiler} failed: {proc.stderr.strip()[:200]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _shoup64(w: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``floor(w * 2**64 / q)`` for residues ``w < q < 2**32``, as two exact
    32-bit long-division steps (``w << 32`` and ``r << 32`` fit in uint64)."""
    hi, r = np.divmod(w << _U64(32), qs)
    return (hi << _U64(32)) | ((r << _U64(32)) // qs)


class CompiledPlan:
    """Per-``(n, primes)`` tables: the reference twiddles, their 64-bit
    Shoup quotients and ``1/N``, each contiguous ``(L, N)`` / ``(L,)``."""

    def __init__(self, n: int, primes: tuple[int, ...]) -> None:
        self.primes = tuple(int(q) for q in primes)
        if max(self.primes) >= MAX_MODULUS:
            raise ValueError(
                f"compiled NTT needs primes below 2**30, got {max(self.primes)}"
            )
        self.level = len(self.primes)
        contexts = [get_ntt_context(n, q) for q in self.primes]
        self.qs = np.array(self.primes, dtype=_U64)
        col = self.qs.reshape(-1, 1)
        self.fwd = np.stack([c.psi_bitrev for c in contexts])
        self.fwd_shoup = _shoup64(self.fwd, col)
        self.inv = np.stack([c.psi_inv_bitrev for c in contexts])
        self.inv_shoup = _shoup64(self.inv, col)
        self.n_inv = np.array([c.n_inv for c in contexts], dtype=_U64)
        self.n_inv_shoup = _shoup64(self.n_inv, self.qs)


class CompiledBackend(KernelBackend):
    """Forward/inverse NTT in C; every other kernel is the numpy default."""

    name = "compiled"

    def __init__(self, lib: ctypes.CDLL) -> None:
        ptr, size = ctypes.c_void_p, ctypes.c_size_t
        lib.repro_ntt_forward.argtypes = [ptr, size, size, size] + [ptr] * 3
        lib.repro_ntt_forward.restype = None
        lib.repro_ntt_inverse.argtypes = [ptr, size, size, size] + [ptr] * 5
        lib.repro_ntt_inverse.restype = None
        self._lib = lib
        self._plans: dict[tuple[int, tuple[int, ...]], CompiledPlan] = {}
        self._lock = threading.Lock()

    def plan(self, n: int, primes: tuple[int, ...]) -> CompiledPlan:
        key = (n, tuple(primes))
        plan = self._plans.get(key)
        if plan is None:
            with self._lock:
                plan = self._plans.get(key)
                if plan is None:
                    plan = self._plans[key] = CompiledPlan(*key)
        return plan

    def forward(self, n, primes, values):
        plan = self.plan(n, primes)
        flat, shape = self._residue_copy(n, plan.primes, values)
        rows = flat.shape[0] * plan.level
        count_transform("forward", rows, self.name)
        self._lib.repro_ntt_forward(
            flat.ctypes.data, rows, plan.level, n, plan.qs.ctypes.data,
            plan.fwd.ctypes.data, plan.fwd_shoup.ctypes.data,
        )
        return flat.reshape(shape)

    def inverse(self, n, primes, values):
        plan = self.plan(n, primes)
        flat, shape = self._residue_copy(n, plan.primes, values)
        rows = flat.shape[0] * plan.level
        count_transform("inverse", rows, self.name)
        self._lib.repro_ntt_inverse(
            flat.ctypes.data, rows, plan.level, n, plan.qs.ctypes.data,
            plan.inv.ctypes.data, plan.inv_shoup.ctypes.data,
            plan.n_inv.ctypes.data, plan.n_inv_shoup.ctypes.data,
        )
        return flat.reshape(shape)

    def plan_keys(self) -> list[tuple]:
        return sorted(self._plans)

    def clear_plans(self) -> None:
        with self._lock:
            self._plans.clear()


def load() -> CompiledBackend | None:
    """Build (or reuse) and load the library; ``None`` when unavailable."""
    global unavailable_reason
    try:
        lib = ctypes.CDLL(str(build()))
    except OSError as exc:
        unavailable_reason = str(exc)
        return None
    unavailable_reason = None
    return CompiledBackend(lib)
