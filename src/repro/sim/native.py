"""The compiled replay kernel: built on first use, loaded through ctypes.

``replay_kernel.c`` holds the two sequential loops of the columnar
replay (:mod:`repro.sim.array_replay`): the per-level LRU sweep and the
plan decision walk.  This module compiles it with the host C compiler
the first time a replay needs it — never at import — and caches the
shared library in this package's ``__pycache__/`` under a hash of the
source, the flags and the compiler.  Concurrent builders serialize on a
lock file and publish with ``os.replace``, so every process loads the
same file; a process that loads the kernel before forking (see
:func:`repro.analysis.jobs.run_prewarm_jobs`) hands the mapped library
to its workers.

The flags are fixed: ``-O2 -fPIC -shared -ffp-contract=off``, never
``-ffast-math`` or ``-march=native``, so every float the kernel
produces is bit-identical to the reference loop's.

When no compiler is found, or the build or load fails, the failure is
traced once (``sim:kernel-fallback``) and :func:`unavailable_reason`
names it; the simulator then runs the reference loop with that reason
recorded.  Nothing here raises on a missing kernel.

The wrappers check everything the C code indexes by before the call:
rows must be program rows, set indices must lie inside their level,
lines must be non-negative and every stream length must agree.  Bad
input raises :class:`ValueError`, never reaches C.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - only NumPy-enabled replays load it
    np = None

from ..obs.trace import get_tracer

SOURCE = Path(__file__).with_name("replay_kernel.c")
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: compilers tried in order, by name on ``PATH``
COMPILERS = ("cc", "gcc", "clang")
#: where built libraries are cached (tests point it elsewhere)
CACHE_DIR = Path(__file__).with_name("__pycache__")

#: counter slots of ``plan_walk``, in the C enum's order
WALK_COUNTERS = (
    "late_hits", "sim_misses", "issued", "resident", "c2", "c3", "cm",
    "l1_dh", "l1_dm", "l1_ph", "l1_pf", "l1_pu", "l1_ev",
    "l2_dh", "l2_dm", "l2_ph", "l2_pf", "l2_pu", "l2_ev",
    "l3_dh", "l3_dm", "l3_ph", "l3_pf", "l3_pu", "l3_ev",
)
#: float slots of ``plan_walk``
WALK_FLOATS = ("now", "busy", "frontend_stalls", "late_stall")


@dataclass(frozen=True)
class KernelStatus:
    """Which tier the columnar replay runs on, and why."""

    compiled: bool
    #: why the kernel is unavailable (None when compiled)
    reason: Optional[str]
    source_sha256: str
    compiler: Optional[str]
    path: Optional[str]

    def manifest_fields(self) -> dict:
        return {
            "compiled": self.compiled,
            "source_sha256": self.source_sha256,
            "compiler": self.compiler,
        }


_status: Optional[KernelStatus] = None
_lib = None


def find_compiler() -> Optional[str]:
    """The first C compiler on ``PATH``, resolved, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return os.path.realpath(path)
    return None


def source_sha256() -> str:
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def _library_path(compiler: str, source_digest: str) -> Path:
    info = os.stat(compiler)
    key = "\0".join(
        (source_digest, " ".join(CFLAGS), compiler,
         str(info.st_size), str(info.st_mtime_ns))
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return CACHE_DIR / f"replay_kernel-{digest}.so"


def _build(compiler: str, target: Path) -> None:
    """Compile into *target* unless another process already has.

    Builders serialize on a lock file next to the target and publish
    with ``os.replace``, so a reader never sees a partial library."""
    import fcntl
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if target.exists():
            return
        fd, tmp = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=target.parent
        )
        os.close(fd)
        try:
            try:
                proc = subprocess.run(
                    [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
                    capture_output=True, text=True, timeout=300,
                )
            except subprocess.TimeoutExpired as exc:
                raise OSError(f"compiler timed out after {exc.timeout}s")
            if proc.returncode != 0:
                raise OSError(proc.stderr.strip() or "compiler failed")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


class _Level(ctypes.Structure):
    _fields_ = [
        ("num_sets", ctypes.c_int64),
        ("ways", ctypes.c_int64),
        ("pd", ctypes.c_int64),
        ("tags", ctypes.c_void_p),
        ("fill", ctypes.c_void_p),
        ("pend", ctypes.c_void_p),
        ("touched", ctypes.c_void_p),
    ]


class _Inflight(ctypes.Structure):
    _fields_ = [
        ("cap", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("line", ctypes.c_void_p),
        ("arrival", ctypes.c_void_p),
        ("mask", ctypes.c_int64),
        ("slot", ctypes.c_void_p),
    ]


_WALK_ARRAYS = (
    "rows", "plan_id", "combo_start", "combo_cost",
    "tgt_line", "tgt_s1", "tgt_s2", "tgt_s3",
    "line_start", "line_data", "line_s1", "line_s2", "line_s3",
    "incr_row", "data_count", "data_line", "data_s2", "data_s3",
)


class _Walk(ctypes.Structure):
    _fields_ = (
        [("n", ctypes.c_int64), ("boundary", ctypes.c_int64)]
        + [(name, ctypes.c_void_p) for name in _WALK_ARRAYS]
        + [("penalty", ctypes.c_double * 4),
           ("occupancy", ctypes.c_double * 4)]
    )


def _load(path: Path):
    lib = ctypes.CDLL(str(path))
    lib.lru_sweep.argtypes = [
        ctypes.POINTER(_Level), ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.lru_sweep.restype = ctypes.c_int
    lib.plan_walk.argtypes = [
        ctypes.POINTER(_Walk),
        ctypes.POINTER(_Level), ctypes.POINTER(_Level), ctypes.POINTER(_Level),
        ctypes.POINTER(_Inflight), ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.plan_walk.restype = ctypes.c_int
    return lib


def status() -> KernelStatus:
    """Load (building on first use) the kernel; never raises."""
    global _status, _lib
    if _status is not None:
        return _status
    digest = source_sha256()
    compiler = find_compiler()
    reason: Optional[str] = None
    path: Optional[Path] = None
    detail = ""
    if compiler is None:
        reason = "no-compiler"
    else:
        try:
            path = _library_path(compiler, digest)
            if not path.exists():
                _build(compiler, path)
        except OSError as exc:
            reason, detail = "kernel-build-failed", str(exc)
        else:
            try:
                _lib = _load(path)
            except (OSError, AttributeError) as exc:
                reason, detail = "kernel-load-failed", str(exc)
    if reason is not None:
        get_tracer().instant(
            "sim:kernel-fallback", reason=reason, detail=detail[:500]
        )
    _status = KernelStatus(
        compiled=reason is None,
        reason=reason,
        source_sha256=digest,
        compiler=compiler,
        path=str(path) if reason is None else None,
    )
    return _status


def unavailable_reason() -> Optional[str]:
    """None when the compiled kernel is loaded, else the fallback reason."""
    return status().reason


def reset() -> None:
    """Forget the load outcome so the next call retries (tests)."""
    global _status, _lib
    _status = None
    _lib = None


# -- checked wrappers --------------------------------------------------------


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


def _i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _check_sets(sets: np.ndarray, num_sets: int, what: str) -> None:
    if len(sets) and (int(sets.min()) < 0 or int(sets.max()) >= num_sets):
        raise ValueError(f"{what}: set index outside [0, {num_sets})")


def _check_lines(lines: np.ndarray, what: str) -> None:
    if len(lines) and int(lines.min()) < 0:
        raise ValueError(f"{what}: negative cache line")


def _level_struct(level) -> _Level:
    size = level.num_sets * level.ways
    if not (
        level.tags.dtype == np.int64 and level.tags.shape == (size,)
        and level.pend.dtype == np.uint8 and level.pend.shape == (size,)
        and level.fill.dtype == np.int64
        and level.fill.shape == (level.num_sets,)
        and level.touched.dtype == np.uint8
        and level.touched.shape == (level.num_sets,)
        and level.num_sets >= 1 and level.ways >= 1 and level.pd >= 0
    ):
        raise ValueError("cache level state has the wrong layout")
    return _Level(
        level.num_sets, level.ways, level.pd,
        _ptr(level.tags), _ptr(level.fill), _ptr(level.pend),
        _ptr(level.touched),
    )


def _require():
    if status().reason is not None:
        raise RuntimeError(
            f"compiled replay kernel unavailable ({_status.reason})"
        )
    return _lib


def lru_sweep(level, lines, sets):
    """Exact per-access LRU hit/evict flags for one demand-fill level,
    advancing *level* (an :class:`~repro.sim.array_replay.DenseLevel`)
    in place.  Returns two boolean arrays."""
    lib = _require()
    lines = _i64(lines)
    sets = _i64(sets)
    if len(lines) != len(sets):
        raise ValueError("lru_sweep: lines and sets differ in length")
    _check_lines(lines, "lru_sweep")
    _check_sets(sets, level.num_sets, "lru_sweep")
    n = len(lines)
    hits = np.empty(n, dtype=np.bool_)
    evicts = np.empty(n, dtype=np.bool_)
    lib.lru_sweep(
        ctypes.byref(_level_struct(level)), n,
        _ptr(lines), _ptr(sets), _ptr(hits), _ptr(evicts),
    )
    return hits, evicts


def plan_walk(levels, inflight, counters, floats, *, boundary, penalty,
              occupancy, **arrays):
    """Run the plan decision walk over one shard.

    *levels* are the three :class:`~repro.sim.array_replay.DenseLevel`
    states (updated in place); *inflight* is the carried
    ``(lines, arrivals)`` pair in insertion order; *counters* and
    *floats* are ``int64``/``float64`` arrays laid out as
    :data:`WALK_COUNTERS`/:data:`WALK_FLOATS` (updated in place).
    Returns the new in-flight pair.
    """
    lib = _require()
    a = {
        name: np.ascontiguousarray(
            arrays[name],
            dtype=np.float64 if name in ("combo_cost", "incr_row") else np.int64,
        )
        for name in _WALK_ARRAYS
    }
    l1, l2, l3 = levels
    n = len(a["rows"])
    num_rows = len(a["line_start"]) - 1
    n_combos = len(a["combo_cost"])
    if (
        len(a["plan_id"]) != n or len(a["data_count"]) != n
        or len(a["incr_row"]) != num_rows
        or len(a["combo_start"]) != n_combos + 1
        or len(a["line_data"]) != int(a["line_start"][-1])
        or len(a["tgt_line"]) != int(a["combo_start"][-1])
        or len(a["data_line"]) != int(a["data_count"].sum())
        or any(len(a[f"tgt_s{k}"]) != len(a["tgt_line"]) for k in (1, 2, 3))
        or any(len(a[f"line_s{k}"]) != len(a["line_data"]) for k in (1, 2, 3))
        or any(len(a[f"data_s{k}"]) != len(a["data_line"]) for k in (2, 3))
        or counters.dtype != np.int64
        or counters.shape != (len(WALK_COUNTERS),)
        or floats.dtype != np.float64 or floats.shape != (len(WALK_FLOATS),)
    ):
        raise ValueError("plan_walk: inconsistent stream lengths")
    if n and (int(a["rows"].min()) < 0 or int(a["rows"].max()) >= num_rows):
        raise ValueError("plan_walk: trace row outside the program")
    if n and (int(a["plan_id"].min()) < -1
              or int(a["plan_id"].max()) >= n_combos):
        raise ValueError("plan_walk: site combination out of range")
    if np.any(np.diff(a["combo_start"]) < 0) or int(a["combo_start"][0]) != 0:
        raise ValueError("plan_walk: malformed site table")
    if np.any(np.diff(a["line_start"]) < 0) or int(a["line_start"][0]) != 0:
        raise ValueError("plan_walk: malformed line table")
    if n and int(a["data_count"].min()) < 0:
        raise ValueError("plan_walk: negative data access count")
    for what in ("tgt_line", "line_data", "data_line"):
        _check_lines(a[what], f"plan_walk {what}")
    for prefix, levels_of in (("tgt", (1, 2, 3)), ("line", (1, 2, 3)),
                              ("data", (2, 3))):
        for k in levels_of:
            _check_sets(a[f"{prefix}_s{k}"], levels[k - 1].num_sets,
                        f"plan_walk {prefix}_s{k}")

    # In-flight log: carried entries, then room for every possible issue.
    carried_lines = _i64(inflight[0])
    _check_lines(carried_lines, "plan_walk in-flight")
    n_carried = len(carried_lines)
    sizes = np.diff(a["combo_start"])
    issues = a["plan_id"][a["plan_id"] >= 0]
    cap = n_carried + (int(sizes[issues].sum()) if len(issues) else 0)
    log_line = np.empty(cap, dtype=np.int64)
    log_arrival = np.empty(cap, dtype=np.float64)
    log_line[:n_carried] = carried_lines
    log_arrival[:n_carried] = np.asarray(inflight[1], dtype=np.float64)
    table = 16
    while table < 2 * cap:
        table *= 2
    slots = np.full(table, -1, dtype=np.int64)
    fl = _Inflight(cap, n_carried, _ptr(log_line), _ptr(log_arrival),
                   table - 1, _ptr(slots))

    walk = _Walk(n, boundary, *(_ptr(a[name]) for name in _WALK_ARRAYS))
    walk.penalty[:] = [float(x) for x in penalty]
    walk.occupancy[:] = [float(x) for x in occupancy]
    structs = [_level_struct(level) for level in levels]
    if lib.plan_walk(
        ctypes.byref(walk), *(ctypes.byref(s) for s in structs),
        ctypes.byref(fl), _ptr(counters), _ptr(floats),
    ) != 0:
        raise RuntimeError("plan_walk: in-flight log overflow")
    used = log_line[: fl.n]
    live = used >= 0
    return used[live], log_arrival[: fl.n][live]
