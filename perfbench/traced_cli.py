"""Run one ``repro`` CLI command with span wrappers around every layer.

    PERFBENCH_SPANS=DIR python perfbench/traced_cli.py serve --data ...

The wrappers are installed at module top level, before ``repro.cli``
runs.  Shard workers start under ``spawn``, which re-imports the
parent's main module in the child, so the same wrappers reach them.
Each process keeps its spans in memory and writes them on ``SIGUSR1``
and when it exits (workers when their frame loop ends).  Nothing under
``src/`` changes: the wrapped names are the ones each caller looks up,
including the names ``session.py``, ``search.py``, ``cli.py`` and
``facade.py`` import directly.
"""

from __future__ import annotations

import os
import signal
import sys

import tracer
from tracer import adopt, wrap

import repro.cli as cli
import repro.data.io as data_io
import repro.dssearch.canonical as canonical
import repro.dssearch.search as search
import repro.engine.persist as persist
import repro.engine.session as session_mod
import repro.engine.updates as updates
import repro.engine.wal as wal
import repro.asp.evaluate as evaluate
import repro.index.gids as gids
import repro.service.facade as facade
import repro.service.httpd as httpd
import repro.service.types as types
import repro.shard.router as router
import repro.shard.worker as worker
from repro.core.distance import WeightedLpDistance
from repro.dssearch.grid import DiscretizationGrid
from repro.engine.pool import SessionPool


def _path(args, kwargs, result):
    return {"path": args[0].path}


def _nbytes(args, kwargs, result):
    return {"bytes": len(result)}


def _frame_bytes(args, kwargs, result):
    return {"bytes": len(types.dumps(args[1]))}


def _rows_offered(args, kwargs, result):
    return {"rows": int(len(args[1]))}


def _update_stats(args, kwargs, result):
    if result is None:
        return None
    return {
        "patched": int(result.lattices_patched + result.pending_lattices_patched),
        "dropped": int(result.lattices_dropped + result.pending_lattices_dropped),
        "kept": int(result.cell_entries_kept),
        "cells_dropped": int(result.cell_entries_dropped),
    }


def _replayed(args, kwargs, result):
    return None if result is None else {"applied": int(result.applied)}


def _wal_size_before(args, kwargs, span_id, rid):
    tracer._local.wal_size = _size(args[0].path)


def _wal_growth(args, kwargs, result):
    return {"grew": _size(args[0].path) - tracer._local.wal_size}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _stamp_frames(args, kwargs, span_id, rid):
    for frame in args[1].values():
        frame["_trace"] = [rid, span_id]


def _stamp_frame(args, kwargs, span_id, rid):
    args[1]["_trace"] = [rid, span_id]


def _adopting(owner, attr):
    """Adopt ``frame["_trace"]`` before the (already wrapped) call."""
    inner = getattr(owner, attr)

    def call(self, frame, *rest, **kwargs):
        adopt(frame.get("_trace") if isinstance(frame, dict) else None)
        return inner(self, frame, *rest, **kwargs)

    setattr(owner, attr, call)


def _flushing(fn):
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.flush()

    return call


# -- service.httpd + codec ----------------------------------------------
wrap(httpd._Handler, "do_POST", "httpd.post", root=True, attrs=_path)
wrap(httpd, "dumps", "codec.dumps", attrs=_nbytes)
for _cls in (types.QueryRequest, types.UpdateRequest):
    wrap(_cls, "from_dict", "codec.decode")
for _cls in (types.RegionResult, types.UpdateResult):
    wrap(_cls, "to_dict", "codec.encode")

# -- service.facade + engine.pool -----------------------------------------
wrap(facade.RegionService, "query", "facade.query")
wrap(facade.RegionService, "update", "facade.update")
wrap(facade.RegionService, "checkpoint", "facade.checkpoint")
wrap(facade.RegionService, "compact", "facade.compact")
wrap(SessionPool, "apply", "pool.apply")

# -- engine.session / updates / wal / persist, data -----------------------
wrap(session_mod.QuerySession, "solve_with_epoch", "session.solve")
wrap(session_mod.QuerySession, "solve_canonical_with_epoch", "session.solve")
wrap(session_mod, "candidate_lattice_intervals", "session.lattice_build")
wrap(session_mod, "reduce_to_asp", "session.reduction_build")
wrap(updates, "apply_update", "updates.apply", attrs=_update_stats)
wrap(updates, "_apply_exclusive", "updates.exclusive")
wrap(wal.WriteAheadLog, "append", "wal.append",
     before=_wal_size_before, attrs=_wal_growth)
for _owner in (wal, facade):
    wrap(_owner, "replay", "wal.replay", attrs=_replayed)
wrap(persist, "save_session", "persist.save")
wrap(persist, "load_session", "persist.load")
for _owner in (data_io, cli):
    wrap(_owner, "save_csv", "data.save_csv")
    wrap(_owner, "load_csv_infer", "data.load_csv")
wrap(data_io, "load_csv", "data.load_csv")

# -- solve kernels ---------------------------------------------------------
wrap(session_mod, "gi_ds_search", "gids.search")
wrap(WeightedLpDistance, "lower_bound_many", "core.lower_bound")
wrap(DiscretizationGrid, "accumulate", "dssearch.accumulate")
wrap(search.DSSearchEngine, "_candidate_points", "dssearch.candidate_points")
for _cls in (search.DSSearchEngine, canonical.TieCollectingEngine):
    wrap(_cls, "offer_batch", "dssearch.offer", attrs=_rows_offered)
for _owner in (search, evaluate):
    wrap(_owner, "points_distances", "asp.points_distances")
wrap(canonical, "run_pass1", "canonical.pass1")
wrap(canonical, "run_pass2", "canonical.pass2")

# -- shard.router / shard.worker -----------------------------------------
wrap(router.ShardRouter, "query", "router.query")
wrap(router.ShardRouter, "update", "router.update")
wrap(router.ShardRouter, "recover", "router.recover")
wrap(router.ShardRouter, "_scatter", "router.scatter", before=_stamp_frames)
wrap(worker.ProcessShardBackend, "request", "worker.roundtrip",
     before=_stamp_frame)
_adopting(worker.ProcessShardBackend, "request")
wrap(worker.ProcessShardBackend, "__init__", "worker.start")
wrap(worker.ShardServer, "handle", "worker.handle")
_adopting(worker.ShardServer, "handle")
wrap(worker, "send_frame", "worker.send_frame", attrs=_frame_bytes)
worker.worker_main = _flushing(worker.worker_main)
worker.worker_main.__module__ = "repro.shard.worker"
worker.worker_main.__qualname__ = "worker_main"

signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.flush())

if __name__ == "__main__":
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.flush()
    sys.exit(code)
