"""Seeded inputs, epoch bookkeeping and the cold in-process oracle.

The program only ever sees what this module generates: the tweets CSV
(made by ``repro generate``), the query-shape spec for ``index-build``,
and the JSON bodies of ``/query`` and ``/update``.  The oracle imports
``repro`` from the checkout's ``src/`` and answers cold, on a dataset the
benchmark rebuilds from its own list of acknowledged updates.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from repro.core.aggregators import CompositeAggregator
from repro.core.query import ASRSQuery
from repro.data.io import load_csv_infer
from repro.data.tweets import DAYS, weekend_query
from repro.engine.session import QuerySession
from repro.experiments.datasets import paper_query_size
from repro.index import gi_ds_search
from repro.service.facade import parse_term
from repro.service.types import RegionResult

CATEGORICAL = ["day_of_week"]
NUMERIC = ["length"]
TERMS = ["fD:day_of_week"]
WEIGHTS = [1 / 5] * 5 + [1 / 2] * 2
#: The paper's Fig. 10 query sizes: the weekend query at 10q and 14q.
SIZE_FACTORS = (10, 14)
#: Draws the request set (targets, update batches) shared by every run.
POOL_SEED = 20190801


def load(path):
    return load_csv_infer(path, categorical=CATEGORICAL, numeric=NUMERIC)


class Inputs:
    """Everything one run sends, from the base CSV and the run's seed.

    The request *set* is the same in every run (drawn with
    :data:`POOL_SEED`): the same query targets and the same update
    batches.  ``seed`` draws the order both are sent in, the answers the
    oracle samples, and the interleaving that follows from them.  A run
    therefore never measures a luckier or costlier draw of work than
    another, only another arrival order.
    """

    def __init__(self, dataset, seed: int, n_queries: int, n_updates: int,
                 rows_per_batch: int = 4, n_warmup: int = 2) -> None:
        pool = np.random.default_rng(POOL_SEED)
        order = np.random.default_rng([seed, 1])
        self.base = dataset
        self.shapes = []
        for k in SIZE_FACTORS:
            width, height = paper_query_size(dataset, k)
            target = weekend_query(dataset, width, height).query_rep
            self.shapes.append((width, height, np.asarray(target)))
        self.warmup = [self._query(pool, i) for i in range(n_warmup * len(self.shapes))]
        queries = [self._query(pool, i) for i in range(n_queries)]
        self.queries = [queries[i] for i in order.permutation(n_queries)]
        batches = self._batches(pool, n_updates, rows_per_batch)
        self.updates = self._sequence([batches[i] for i in order.permutation(n_updates)])

    def _query(self, rng, i: int) -> dict:
        """Shapes alternate; each target component is scaled by U(0.9, 1.1)."""
        width, height, target = self.shapes[i % len(self.shapes)]
        scaled = target * rng.uniform(0.9, 1.1, target.shape)
        return {
            "terms": TERMS,
            "width": width,
            "height": height,
            "target": [float(v) for v in scaled],
            "weights": WEIGHTS,
        }

    def shape_spec(self) -> dict:
        """The ``index-build --queries`` document warming both shapes."""
        return {
            "terms": TERMS,
            "weights": WEIGHTS,
            "queries": [
                {"width": w, "height": h, "target": [float(v) for v in t]}
                for w, h, t in self.shapes
            ],
        }

    def _batches(self, rng, count: int, rows: int) -> list:
        """``(base rows to delete, rows to append)`` per batch.

        Deleted rows are distinct base rows strictly inside the bounding
        box and appended points lie strictly inside it too, so the
        bounds -- and every grid the program derives from them -- stay
        fixed whatever order the batches arrive in.
        """
        xs, ys = self.base.xs, self.base.ys
        x0, x1, y0, y1 = xs.min(), xs.max(), ys.min(), ys.max()
        inside = np.flatnonzero((xs > x0) & (xs < x1) & (ys > y0) & (ys < y1))
        doomed = rng.choice(inside, size=(count, rows), replace=False)
        out = []
        for k in range(count):
            ax = np.round(rng.uniform(x0, x1, rows), 5).clip(x0 + 1e-5, x1 - 1e-5)
            ay = np.round(rng.uniform(y0, y1, rows), 5).clip(y0 + 1e-5, y1 - 1e-5)
            days = rng.integers(0, len(DAYS), rows)
            lengths = rng.integers(1, 141, rows)
            append = [
                [float(x), float(y), {"day_of_week": DAYS[d], "length": float(n)}]
                for x, y, d, n in zip(ax, ay, days, lengths)
            ]
            out.append((doomed[k], append))
        return out

    def _sequence(self, batches: list) -> list:
        """``/update`` bodies: delete indices as the rows stand when each applies."""
        ids = np.arange(self.base.n)
        next_id = self.base.n
        out = []
        for doomed, append in batches:
            gone = np.isin(ids, doomed)
            out.append({"append": append, "delete": [int(i) for i in np.flatnonzero(gone)]})
            ids = np.concatenate([ids[~gone], np.arange(next_id, next_id + len(append))])
            next_id += len(append)
        return out


def csv_bytes(update: dict) -> int:
    """Bytes the update's appended rows take as CSV rows (the user data)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for x, y, attrs in update["append"]:
        writer.writerow([x, y, attrs["day_of_week"], attrs["length"]])
    return len(buf.getvalue().encode())


class EpochData:
    """Datasets at each epoch, rebuilt from acknowledged updates in order."""

    def __init__(self, base, updates: list) -> None:
        self.base = base
        self.updates = updates
        self._cache = {0: base}

    def at(self, epoch: int):
        if epoch in self._cache:
            return self._cache[epoch]
        below = max(e for e in self._cache if e < epoch)
        data = self._cache[below]
        for update in self.updates[below:epoch]:
            data = data.delete(update["delete"]).append_records(
                [tuple(r) for r in update["append"]]
            )
        self._cache[epoch] = data
        return data


def asrs_query(body: dict) -> ASRSQuery:
    aggregator = CompositeAggregator([parse_term(t) for t in body["terms"]])
    return ASRSQuery.from_vector(
        body["width"], body["height"], aggregator,
        np.asarray(body["target"], dtype=np.float64),
        weights=np.asarray(body["weights"]),
    )


def oracle_answer(data, body: dict, granularity=None) -> tuple:
    """Cold answer as ``(region, score, representation)``.

    With a ``granularity`` this is GI-DS at the server's grid (what the
    unsharded server must match); without, the unsharded canonical solve
    (what the shard router must match).
    """
    query = asrs_query(body)
    if granularity is not None:
        result = gi_ds_search(data, query, granularity=granularity)
    else:
        result = QuerySession(data).solve_canonical(query)
    r = result.region
    return (
        (float(r.x_min), float(r.y_min), float(r.x_max), float(r.y_max)),
        float(result.distance),
        tuple(float(v) for v in result.representation),
    )


def served_answer(doc: dict) -> tuple:
    result = RegionResult.from_dict(doc)
    return result.region, result.score, result.representation
