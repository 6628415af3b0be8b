"""Process-local warm-start pool: shared construction checkpoints.

Sweeps build hundreds of testbeds that differ only in workload
parameters, not in construction inputs.  With warm start enabled,
:func:`get_or_build` snapshots one freshly-constructed testbed per
distinct ``(provider, constructor kwargs, code version)`` and every
subsequent cell *restores* from that blob instead of re-running
construction.  Crucially the **first** cell also goes through
``snapshot -> restore``, so every cell — first or hundredth, serial or
in a worker process — takes the identical code path and produces
byte-identical results; cold runs differ only in wall-clock.

Eligibility is conservative: named providers only (spec objects can be
mutated by ablation studies), and no armed faults (an armed injector
spawns live processes the state tier refuses).  Ineligible cells fall
back to cold construction transparently.

The pool is per-process.  Parallel sweeps enable it in each worker via
the executor initializer (see ``repro.executor.parallel_map``);
workers rebuild the blob once on first use — deterministically, so the
same bytes — and reuse it for every cell they are handed.
"""

from __future__ import annotations

from .format import snapshot_key

__all__ = ["enable_warm_start", "warm_enabled", "get_or_build",
           "clear_pool", "pool_stats"]

_enabled = False
_pool: dict[str, bytes] = {}
_hits = 0
_builds = 0


def enable_warm_start(on: bool = True) -> None:
    """Turn the process-local warm-start pool on or off."""
    global _enabled
    _enabled = bool(on)


def warm_enabled() -> bool:
    return _enabled


def clear_pool() -> None:
    global _hits, _builds
    _pool.clear()
    _hits = 0
    _builds = 0


def pool_stats() -> dict:
    return {"entries": len(_pool), "hits": _hits, "builds": _builds}


def _eligible(provider, kwargs: dict) -> bool:
    if not isinstance(provider, str):
        return False
    if kwargs.get("faults") is not None:
        return False
    return True


def get_or_build(provider, kwargs: dict) -> bytes | None:
    """Return the construction blob for this cell, or None if ineligible.

    Builds (and caches) the blob on first request for a given key by
    constructing one cold testbed and state-snapshotting it before any
    process runs.
    """
    global _hits, _builds
    if not _eligible(provider, kwargs):
        return None
    canon = repr((provider, sorted(kwargs.items())))
    key = snapshot_key(canon, int(kwargs.get("seed", 0)))
    blob = _pool.get(key)
    if blob is not None:
        _hits += 1
        return blob
    from ..providers.registry import Testbed
    from .state import snapshot_state

    tb = Testbed(provider, **kwargs)
    blob = snapshot_state(tb, extra_meta={"warm_key": key})
    _pool[key] = blob
    _builds += 1
    return blob
