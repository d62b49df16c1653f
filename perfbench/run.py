"""End-to-end HTTP benchmark of ``repro serve`` over three traffic mixes.

    python3 perfbench/run.py --workload warm-read --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The benchmark generates its inputs,
starts the program through its own CLI (``repro index-build`` or ``repro
shard-plan``, then ``repro serve``), drives it over keep-alive HTTP,
checks a sample of answers bitwise against a cold in-process oracle,
runs crash drills, reads counters from ``/proc`` and ``GET /stats``, and
prints one JSON line last.  ``--trace 1`` runs the same workload with
every program command started through ``traced_cli.py`` and reports
per-layer metrics instead of end-to-end ones.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

from harness import (
    Client,
    Server,
    cpu_seconds,
    disk_mb,
    kill_and_wait,
    log,
    owned_pids,
    program_env,
    peak_rss_mb,
    percentile,
    run_cli,
    run_timed_phase,
    run_write_phase,
    serving_pids,
    shard_workers,
)
from layers import SUM_TOLERANCE_PCT, UNITS, layer_metrics, load_spans

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import inputs
except ImportError:  # not started from the root of a checkout
    inputs = None

#: One workload = one traffic mix against one serving configuration.
#: The read phase serves ``queries`` to closed-loop ``readers`` while an
#: open-loop writer sends the first ``mixed_updates`` at ``rate`` per
#: second; the write phase then sends the other ``timed_updates`` from a
#: lone closed-loop writer.  routed-ingest reads without a writer: the
#: shard router refuses a query that arrives during an update (NOTES.md,
#: "Known defects"), and taking turns made its query tail track the
#: updates.
WORKLOADS = {
    "warm-read": dict(n=20_000, mode="index", readers=1, queries=200,
                      mixed_updates=0, rate=0.0, timed_updates=100),
    "ingest": dict(n=5_000, mode="wal", readers=1, queries=200,
                   mixed_updates=40, rate=3.0, timed_updates=100),
    "routed-ingest": dict(n=8_000, mode="shards", readers=1, queries=200,
                          mixed_updates=0, rate=0.0, timed_updates=100),
}
#: Chunks of each phase: a crash drill follows each read chunk, an
#: oracle-checked query each write chunk.
CHUNKS = 3
#: ``repro generate --seed``: the dataset is the same in every run, so
#: run-to-run spread measures the code, not the cluster layout a data
#: seed happens to draw (NOTES.md, "Seeds").  ``--seed`` orders traffic.
DATA_SEED = 0
#: The ingest durability policy, passed to ``repro serve`` verbatim: the
#: log is compacted every 30 records and checkpointed on close only, so
#: the bundle a restart loads is the one index-build wrote (NOTES.md).
DURABILITY = ["--compact-every-records", "30"]
SCHEMA_ARGS = ["--categorical", "day_of_week", "--numeric", "length"]
SETUP_REPS = 2
ORACLE_SAMPLE = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="nominal run length; the request lists are fixed per "
                   "workload and sized to about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One run of one workload: inputs, set-up, timed phase, checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(self.dir)
        self.spans_dir = None
        if args.trace:
            self.spans_dir = os.path.join(self.dir, "spans")
            os.makedirs(self.spans_dir)
        self.env = program_env(ROOT, self.dir, self.spans_dir)
        self.ops = {k: {"attempted": 0, "failed": 0} for k in ("query", "update", "recover")}
        self.problems: list = []
        self.server = None
        self.drill_windows: list = []
        self.windows: list = []  # read chunks and write phase, monotonic ns
        self.drill_samples: list = []
        self.write_samples: list = []
        self.oracle: dict = {}  # (epoch, request) -> cold answer
        self.server_pids: set = set()

    # -- program commands ------------------------------------------------
    def cli(self, *argv) -> list:
        if self.args.trace:
            return [sys.executable, os.path.join(HERE, "traced_cli.py"), *argv]
        return [sys.executable, "-m", "repro.cli", *argv]

    def serve_cmd(self) -> list:
        if self.cfg["mode"] == "shards":
            return self.cli("serve", "--shards", self.path("shards"), "--port", "0")
        cmd = self.cli("serve", "--data", self.path("data.csv"), *SCHEMA_ARGS,
                       "--index", self.path("data.idx"), "--port", "0")
        if self.cfg["mode"] == "wal":
            cmd += ["--wal", self.path("data.wal"), *DURABILITY]
        return cmd

    def path(self, name: str) -> str:
        """A file of the current set-up's directory."""
        return os.path.join(self.rep_dir, name)

    def fail(self, kind: str, why: str) -> None:
        self.ops[kind]["failed"] += 1
        self.problems.append(f"{kind}: {why}")

    # -- phases ----------------------------------------------------------
    def make_inputs(self) -> None:
        base = os.path.join(self.dir, "base.csv")
        run_cli([sys.executable, "-m", "repro.cli", "generate", "--kind", "tweets",
                 "--n", str(self.cfg["n"]), "--seed", str(DATA_SEED),
                 "--out", base], self.env, self.dir)
        mixed = self.cfg["mixed_updates"]
        self.inputs = inputs.Inputs(inputs.load(base), self.args.seed,
                                    self.cfg["queries"],
                                    mixed + self.cfg["timed_updates"])
        self.mixed, self.timed = self.inputs.updates[:mixed], self.inputs.updates[mixed:]
        self.acked: list = []
        self.epochs = inputs.EpochData(self.inputs.base, self.acked)
        with open(os.path.join(self.dir, "shapes.json"), "w") as fh:
            json.dump(self.inputs.shape_spec(), fh)

    def setup_once(self, rep: int) -> float:
        """Build, serve and warm up in a fresh directory; its wall time."""
        if self.server is not None:
            self.server.stop()
        self.rep_dir = os.path.join(self.dir, f"rep{rep}")
        os.makedirs(self.rep_dir)
        data = self.path("data.csv")
        shutil.copyfile(os.path.join(self.dir, "base.csv"), data)
        t0 = time.perf_counter()
        if self.cfg["mode"] == "shards":
            w14, h14, _ = self.inputs.shapes[-1]
            run_cli(self.cli("shard-plan", "--data", data, *SCHEMA_ARGS, "--nx", "2",
                             "--ny", "1", "--wmax", repr(w14), "--hmax", repr(h14),
                             "--out", self.path("shards")), self.env, self.rep_dir)
            self.granularity = None
        else:
            out = run_cli(self.cli("index-build", "--data", data, *SCHEMA_ARGS,
                                   "--queries", os.path.join(self.dir, "shapes.json"),
                                   "--out", self.path("data.idx")),
                          self.env, self.rep_dir)
            gx, gy = out.split("granularity ")[1].split(",")[0].split("x")
            self.granularity = (int(gx), int(gy))
        server = Server(self.serve_cmd(), self.env, self.rep_dir)
        self.query_pass(server.port, "warm-up")
        self.server = server
        return time.perf_counter() - t0

    def query_pass(self, port: int, what: str) -> list:
        """The fixed warm-up queries, both shapes, outside any timing."""
        client = Client(port)
        docs = []
        for body in self.inputs.warmup:
            self.ops["query"]["attempted"] += 1
            status, doc = client.call("POST", "/query", body)
            if status != 200:
                self.fail("query", f"{what} pass answered {status}: {doc}")
            docs.append(doc)
        client.close()
        return docs

    def read_phase(self) -> dict:
        """The query list (and the mixed updates) in :data:`CHUNKS` chunks.

        A crash drill follows each chunk, so recovery runs at several
        epochs and later chunks are served by a restarted server.  Read
        time, CPU and peak RSS add up over the chunks; the drills are
        outside all three.
        """
        queries, mixed = self.inputs.queries, self.mixed
        phase = {"queries": [], "updates": [], "read_s": 0.0, "cpu_s": 0.0,
                 "rss_mb": 0.0, "recover_s": []}
        for c in range(CHUNKS):
            q = queries[len(queries) * c // CHUNKS:len(queries) * (c + 1) // CHUNKS]
            u = mixed[len(mixed) * c // CHUNKS:len(mixed) * (c + 1) // CHUNKS]
            pids = serving_pids(self.server.pid)
            self.server_pids.add(self.server.pid)
            cpu0 = cpu_seconds(pids)
            t0 = time.monotonic_ns()
            chunk = run_timed_phase(self.server.port, q, self.cfg["readers"], u,
                                    self.cfg["rate"])
            self.windows.append((t0, time.monotonic_ns()))
            phase["cpu_s"] += cpu_seconds(pids) - cpu0
            phase["rss_mb"] = max(phase["rss_mb"], peak_rss_mb(pids))
            phase["read_s"] += max(r[1] for r in chunk["queries"]) - chunk["start"]
            phase["queries"] += chunk["queries"]
            phase["updates"] += chunk["updates"]
            self.account_updates(chunk["updates"])
            start = time.monotonic_ns()
            elapsed = self.drill()
            self.drill_windows.append((start, time.monotonic_ns()))
            if elapsed is not None:
                phase["recover_s"].append(elapsed)
        return phase

    def write_phase(self) -> list:
        """The timed updates in :data:`CHUNKS` chunks.

        After each chunk, untimed, one seeded query is answered for the
        oracle check, so answers are checked at epochs inside the phase
        and not only at its end.
        """
        import numpy as np

        timed, records = self.timed, []
        picks = np.random.default_rng([self.args.seed, 3]).choice(
            len(self.inputs.queries), CHUNKS, replace=False)
        for c, i in enumerate(picks):
            t0 = time.monotonic_ns()
            chunk = run_write_phase(
                self.server.port,
                timed[len(timed) * c // CHUNKS:len(timed) * (c + 1) // CHUNKS])
            self.windows.append((t0, time.monotonic_ns()))
            self.account_updates(chunk)
            records += chunk
            client = Client(self.server.port)
            self.ops["query"]["attempted"] += 1
            status, doc = client.call("POST", "/query", self.inputs.queries[i])
            client.close()
            if status != 200:
                self.fail("query", f"write-phase #{i} answered {status}: {doc}")
            else:
                self.write_samples.append((f"write-phase #{i}", self.inputs.queries[i], doc))
        return records

    @property
    def last_epoch(self) -> int:
        return len(self.acked)

    def account_queries(self, phase: dict) -> None:
        for i, (_t0, _t1, status, doc, _sent) in enumerate(phase["queries"]):
            self.ops["query"]["attempted"] += 1
            if status != 200:
                self.fail("query", f"#{i} answered {status}: {doc}")

    def account_updates(self, records: list) -> None:
        """Acknowledged updates extend :attr:`acked`; the k-th is epoch k.

        After the first failed update the epochs no longer follow the
        list, so later ones are counted but not acknowledged.
        """
        for _due, _sent, _done, status, doc in records:
            k = len(self.acked)
            self.ops["update"]["attempted"] += 1
            if self.ops["update"]["failed"]:
                continue
            if status != 200:
                self.fail("update", f"#{k} answered {status}: {doc}")
            elif doc["epoch"] != k + 1:
                self.fail("update", f"#{k} acknowledged at epoch {doc['epoch']}")
            else:
                self.acked.append(self.inputs.updates[k])

    def pick_samples(self, phase: dict) -> list:
        """Seeded answers plus the first at or after each write milestone.

        The milestones are epoch 1 and every update that compacted or
        checkpointed the log.
        """
        import numpy as np

        answered = [(i, rec) for i, rec in enumerate(phase["queries"]) if rec[2] == 200]
        rng = np.random.default_rng([self.args.seed, 2])
        picks = {int(j) for j in rng.choice(len(answered), ORACLE_SAMPLE, replace=False)}
        milestones = {1} | {
            rec[4]["epoch"] for rec in phase["updates"]
            if rec[3] == 200 and (rec[4]["checkpointed"] or rec[4]["compacted"])
        }
        for epoch in milestones:
            later = [(rec[1], j) for j, (_i, rec) in enumerate(answered)
                     if rec[3]["epoch"] >= epoch]
            if later:
                picks.add(min(later)[1])
        return [answered[j] for j in sorted(picks)]

    def check(self, samples: list, kind: str = "query") -> int:
        """``samples`` are ``(label, request body, answer)``."""
        for label, body, doc in samples:
            epoch = doc["epoch"]
            if epoch > self.last_epoch:
                self.fail(kind, f"{label} answered at unacknowledged epoch {epoch}")
                continue
            key = (epoch, json.dumps(body))
            if key not in self.oracle:
                self.oracle[key] = inputs.oracle_answer(self.epochs.at(epoch), body,
                                                        self.granularity)
            want = self.oracle[key]
            got = inputs.served_answer(doc)
            if got != want:
                self.fail(kind, f"{label} at epoch {epoch}: served {got}, oracle {want}")
        return len(samples)

    def phase_samples(self, phase: dict) -> list:
        return [(f"#{i}", self.inputs.queries[i], rec[3])
                for i, rec in self.pick_samples(phase)]

    def final_samples(self) -> list:
        """The first answer of each shape after the write phase.

        A pass over both shapes first, so the close-time checkpoint
        persists the same warm caches in every run; a checkpoint taken
        mid-phase holds whatever a racing query had rebuilt by then.
        """
        docs = self.query_pass(self.server.port, "final")
        shapes = len(self.inputs.shapes)
        return [(f"final #{j}", self.inputs.warmup[j], docs[j])
                for j in range(shapes) if "epoch" in docs[j]]

    def flush_spans(self, pids) -> None:
        """Make traced processes write their spans before a SIGKILL."""
        if not self.args.trace:
            return
        before = set(os.listdir(self.spans_dir))
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            new = set(os.listdir(self.spans_dir)) - before
            if all(any(f.startswith(f"spans-{p}-") and f.endswith(".jsonl") for f in new)
                   for p in pids):
                return
            time.sleep(0.02)

    def drill(self) -> float | None:
        """One crash drill; seconds from SIGKILL to the first answer.

        An answer below the last acknowledged epoch fails the drill at
        once (a lost update); the answer itself joins
        :attr:`drill_samples` for the oracle check after the phase.
        """
        self.ops["recover"]["attempted"] += 1
        body = self.inputs.warmup[0]
        if self.cfg["mode"] == "shards":
            victim = min(shard_workers(self.server.pid))
            self.flush_spans([victim])
            t0 = time.perf_counter()
            kill_and_wait([victim])
        else:
            self.flush_spans([self.server.pid])
            t0 = time.perf_counter()
            self.server.kill()
            self.server = Server(self.serve_cmd(), self.env, self.rep_dir)
        client = Client(self.server.port)
        recovered = False
        try:
            for _attempt in range(5):
                status, doc = client.call("POST", "/query", body)
                if status == 503 and self.cfg["mode"] == "shards" and not recovered:
                    # Detection: the router learns of the dead worker here.
                    recovered = True
                    status, doc = client.call("POST", "/recover", {"dataset": "default"})
                    if status != 200:
                        break
                    continue
                if status != 200:
                    break
                elapsed = time.perf_counter() - t0
                if doc["epoch"] != self.last_epoch:
                    self.fail("recover", f"restarted at epoch {doc['epoch']}, "
                              f"last acknowledged {self.last_epoch}")
                else:
                    label = f"drill {len(self.drill_samples)}"
                    self.drill_samples.append((label, body, doc))
                return elapsed
            self.fail("recover", f"no answer after the drill: {status} {doc}")
            return None
        finally:
            client.close()

    def final_disk_mb(self) -> float:
        """CSV + bundle + WAL (or the shard directory) after a clean stop."""
        self.stop()
        if self.cfg["mode"] == "shards":
            return disk_mb([self.path("shards")])
        return disk_mb(self.path(f) for f in ("data.csv", "data.idx", "data.wal"))

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        kill_and_wait(owned_pids(self.dir))


def end_to_end(phase: dict, writes: list, setups: list, disk: float) -> dict:
    q = [(r[1] - r[0]) * 1000 for r in phase["queries"] if r[2] == 200]
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (percentile(q, 50), "ms"),
        "query_p95_ms": (percentile(q, 95), "ms"),
        "query_qps": (len(q) / phase["read_s"], "1/s"),
        "server_rss_mb": (phase["rss_mb"], "MB"),
        "disk_mb": (disk, "MB"),
    }
    u = [(r[2] - r[1]) * 1000 for r in writes if r[3] == 200]
    m["update_p50_ms"] = (percentile(u, 50), "ms")
    m["update_p90_ms"] = (percentile(u, 90), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def counters(phase: dict, stats: dict) -> dict:
    """Outside-in numbers every run reports on its detail line."""
    late = [(r[1] - r[0]) * 1000 for r in phase["updates"]]
    served = next(iter(stats.get("datasets", {}).values()), {})
    return {
        "checkpoints": served.get("checkpoints"),
        "compactions": served.get("compactions"),
        "pool_mb": stats["pool"]["bytes"] / (1 << 20) if "pool" in stats else None,
        "cpu_ms_per_op": phase["cpu_s"] * 1000 / (len(phase["queries"]) + len(late)),
        "writer_late_p50_ms": statistics.median(late) if late else None,
        "writer_late_max_ms": max(late) if late else None,
        "read_s": phase["read_s"],
    }


def per_layer(run: Run, phase: dict, stats: dict, extra: dict) -> tuple:
    answered = [r for r in phase["queries"] if r[2] == 200]
    values, detail = layer_metrics(
        load_spans(run.spans_dir), run.windows, server_pids=run.server_pids,
        client_query_ms=[(r[1] - r[4]) * 1000 for r in answered],
        drills=run.drill_windows,
        user_bytes=sum(inputs.csv_bytes(u) for u in run.acked),
        stats=stats,
    )
    if values["trace.self_sum_err_pct"] > SUM_TOLERANCE_PCT:
        run.problems.append(
            f"trace: median /query self-time gap {values['trace.self_sum_err_pct']:.2f}% "
            f"exceeds {SUM_TOLERANCE_PCT}%")
    values["proc.cpu_ms_per_op"] = extra["cpu_ms_per_op"]
    values["trace.query_p50_ms"] = statistics.median((r[1] - r[0]) * 1000 for r in answered)
    if extra["writer_late_p50_ms"] is not None:
        values["writer.late_p50_ms"] = extra["writer_late_p50_ms"]
    for name in UNITS:  # a layer this workload never calls did no work
        values.setdefault(name, 0.0)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an error, so ``finally`` stops the program.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if inputs is None:
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    orphans = owned_pids(WORK)
    if orphans:
        log(f"perfbench: killing {len(orphans)} process(es) left by an earlier run")
        kill_and_wait(orphans)
    run = Run(args)
    steps = [("start", time.perf_counter())]
    try:
        run.make_inputs()
        steps.append(("inputs", time.perf_counter()))
        setups = [run.setup_once(rep) for rep in range(SETUP_REPS)]
        steps.append(("setups", time.perf_counter()))
        phase = run.read_phase()
        steps.append(("read", time.perf_counter()))
        run.account_queries(phase)
        checked = run.check(run.phase_samples(phase))
        checked += run.check(run.drill_samples, "recover")
        steps.append(("checks", time.perf_counter()))
        run.server_pids.add(run.server.pid)
        writes = run.write_phase()
        steps.append(("write", time.perf_counter()))
        checked += run.check(run.write_samples + run.final_samples())
        steps.append(("final", time.perf_counter()))
        client = Client(run.server.port)
        status, stats = client.call("GET", "/stats")
        client.close()
        stats = stats if status == 200 else {}
        extra = counters(phase, stats)
        disk = run.final_disk_mb()
        steps.append(("stop", time.perf_counter()))
        if args.trace:
            metrics, detail = per_layer(run, phase, stats, extra)
        else:
            metrics = end_to_end(phase, writes, setups, disk)
            detail = None
    finally:
        run.stop()
        shutil.rmtree(run.dir, ignore_errors=True)
    failed = sum(v["failed"] for v in run.ops.values())
    attempted = sum(v["attempted"] for v in run.ops.values())
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": run.ops,
        "oracle_checked": checked, "problems": run.problems[:20],
        "setups_s": setups, "recover_s": phase["recover_s"], "counters": extra,
        "steps_s": {b[0]: round(b[1] - a[1], 2) for a, b in zip(steps, steps[1:])},
        "layer_self": detail,
    }))
    correct = failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
