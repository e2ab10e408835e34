"""Optional numba-JIT kernels for the memory-model hot loops.

Two interpreter-bound inner loops live behind this module:

- :class:`repro.mem.cache.SetAssociativeCache` replays each set's
  accesses against Python-list LRU buckets — exact, but slow.  When
  numba is importable, :func:`lru_kernel` compiles the same per-set LRU
  replay over flat int64 state arrays with bit-identical semantics.
- :func:`repro.mem.cache.reuse_time_gaps` folds an address stream into
  per-access reuse time gaps.  The vectorised fallback is a stable
  argsort (O(N log N)); :func:`reuse_gap_kernel` compiles the textbook
  O(N) alternative — one pass over the stream against a dense
  *last-seen table* indexed by line number (:func:`reuse_gaps_py`), the
  same fold an LRU simulator's bookkeeping would do.  The gap of access
  *i* is ``i - last_seen[line]`` (or the caller's cold sentinel on a
  first touch), which is exactly what the argsort fold computes, so the
  two paths are bit-identical and ``REPRO_VERIFY=1`` can hold
  them to it (see :mod:`repro.sim.tracecache`).

The packaging idiom follows the numba runtime pattern: the dependency is
*optional* and resolved lazily.  ``import numba`` happens on first
kernel request, an :class:`ImportError` (or a broken numba install
raising on decoration) degrades to ``None`` and the caller falls back
to the pure-Python/vectorised path, and ``REPRO_JIT=0`` disables the
kernels even when numba is present.  The kernel bodies are plain Python
functions (:func:`lru_runs_py`, :func:`reuse_gaps_py`) so tests can
exercise their logic without numba installed.
"""

from __future__ import annotations

import os

#: ``0`` / ``off`` / ``false`` / ``no`` disables JIT even with numba present.
JIT_ENV = "REPRO_JIT"

_DISABLED_VALUES = ("0", "off", "false", "no")


def jit_enabled() -> bool:
    """Whether the environment allows the JIT kernel at all."""
    raw = os.environ.get(JIT_ENV, "").strip().lower()
    return raw not in _DISABLED_VALUES or raw == ""


def lru_runs_py(
    sorted_sets,
    sorted_lines,
    starts,
    ends,
    state,
    fill,
    ways,
    hits_sorted,
) -> None:
    """Replay set-grouped accesses against per-set LRU arrays, in place.

    ``state[s, :fill[s]]`` holds set *s*'s resident lines LRU-first /
    MRU-last — exactly the order of the Python-list buckets in
    :class:`repro.mem.cache.SetAssociativeCache` — and is updated the
    same way: a hit moves the line to the MRU slot, a miss at capacity
    shifts everything down (evicting the LRU line at index 0).  Written
    in the numba-compilable subset (index loops, no Python objects) so
    the compiled and interpreted versions are the same code.
    """
    for r in range(starts.size):
        start = starts[r]
        end = ends[r]
        set_id = sorted_sets[start]
        n_fill = fill[set_id]
        for i in range(start, end):
            line = sorted_lines[i]
            pos = -1
            for j in range(n_fill):
                if state[set_id, j] == line:
                    pos = j
                    break
            if pos >= 0:
                hits_sorted[i] = True
                for j in range(pos, n_fill - 1):
                    state[set_id, j] = state[set_id, j + 1]
                state[set_id, n_fill - 1] = line
            else:
                hits_sorted[i] = False
                if n_fill >= ways:
                    for j in range(n_fill - 1):
                        state[set_id, j] = state[set_id, j + 1]
                    state[set_id, n_fill - 1] = line
                else:
                    state[set_id, n_fill] = line
                    n_fill += 1
        fill[set_id] = n_fill


def reuse_gaps_py(lines, base, last_seen, gaps, gap_cold, start) -> None:
    """O(N) reuse-gap fold over a dense last-seen table, in place.

    ``last_seen[line - base]`` holds the *global* stream position of the
    most recent access to ``line`` (``-1``: never seen), and accesses in
    this call occupy global positions ``start .. start + len(lines) - 1``
    — ``start`` is 0 for a whole-trace fold, and a prior fold's length
    for an incremental phase extension (:meth:`repro.sim.reusepack.
    ReuseProfile.extend`), which carries the table forward instead of
    refolding the prefix.  Bit-identical to the argsort fold in
    :func:`repro.mem.cache.reuse_time_gaps`: both report
    ``position - previous_position`` with the caller's ``gap_cold``
    sentinel marking first touches.  Written in the numba-compilable
    subset (index loop, no Python objects) so the compiled and
    interpreted versions are the same code.
    """
    for i in range(lines.size):
        idx = lines[i] - base
        prev = last_seen[idx]
        pos = start + i
        if prev < 0:
            gaps[i] = gap_cold
        else:
            gaps[i] = pos - prev
        last_seen[idx] = pos


#: Tri-state caches: unresolved / resolved-to-None / resolved-to-kernel.
_RESOLVED = False
_KERNEL = None
_REUSE_RESOLVED = False
_REUSE_KERNEL = None


def lru_kernel():
    """The compiled LRU replay kernel, or ``None`` when unavailable.

    ``None`` means "use the interpreter fallback": numba missing, numba
    broken (compilation raised), or :data:`JIT_ENV` disabled it.  The
    environment gate is re-read per call so tests can toggle it; the
    expensive import/compile happens once per process.
    """
    global _RESOLVED, _KERNEL
    if not jit_enabled():
        return None
    if not _RESOLVED:
        _RESOLVED = True
        try:
            import numba  # noqa: PLC0415 — optional, resolved lazily

            _KERNEL = numba.njit(cache=True)(lru_runs_py)
        except ImportError:
            _KERNEL = None
    return _KERNEL


def reuse_gap_kernel():
    """The compiled last-seen reuse fold, or ``None`` when unavailable.

    Same contract as :func:`lru_kernel`: ``None`` sends the caller to
    the vectorised argsort fallback, the :data:`JIT_ENV` gate is re-read
    per call, and the import/compile cost is paid once per process.
    """
    global _REUSE_RESOLVED, _REUSE_KERNEL
    if not jit_enabled():
        return None
    if not _REUSE_RESOLVED:
        _REUSE_RESOLVED = True
        try:
            import numba  # noqa: PLC0415 — optional, resolved lazily

            _REUSE_KERNEL = numba.njit(cache=True)(reuse_gaps_py)
        except ImportError:
            _REUSE_KERNEL = None
    return _REUSE_KERNEL
