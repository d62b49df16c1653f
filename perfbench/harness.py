"""Process, HTTP and /proc plumbing for the out-of-process benchmark.

Every program process is started with ``PERFBENCH_OWNER=<work dir>`` in
its environment.  Spawned shard workers inherit it, so :func:`owned_pids`
finds the whole tree of one run -- or the orphans an interrupted run
left behind -- without trusting parent links.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

OWNER_ENV = "PERFBENCH_OWNER"
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The program misbehaved in a way the benchmark cannot measure past."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def program_env(root: str, owner: str, spans_dir: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env[OWNER_ENV] = owner
    env.pop("PERFBENCH_SPANS", None)
    if spans_dir is not None:
        env["PERFBENCH_SPANS"] = spans_dir
    return env


def owned_pids(owner_prefix: str) -> list:
    """Live pids whose environment carries an owner under ``owner_prefix``."""
    marker = f"{OWNER_ENV}={owner_prefix}".encode()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as fh:
                env = fh.read()
        except OSError:
            continue
        if any(item.startswith(marker) for item in env.split(b"\0")):
            found.append(int(name))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_and_wait(pids, timeout: float = 30.0) -> None:
    """SIGKILL ``pids`` and wait until none is alive (reaps our children)."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        while _alive(pid):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            if time.monotonic() > deadline:
                raise BenchError(f"process {pid} survived SIGKILL")
            time.sleep(0.01)


def run_cli(cmd: list, env: dict, cwd: str, timeout: float = 170.0) -> str:
    """Run one short program command to completion; its stdout."""
    proc = subprocess.run(
        cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(cmd[1:4])} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return proc.stdout


class Server:
    """One ``repro serve`` process: started, read until its URL, stopped."""

    def __init__(self, cmd: list, env: dict, cwd: str, timeout: float = 120.0):
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self.port = None
        deadline = time.monotonic() + timeout
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait(timeout=30)
                raise BenchError(
                    f"serve exited {self.proc.returncode} before listening: "
                    f"{self.proc.stderr.read()[-2000:]}"
                )
            if "on http://" in line:
                self.port = int(line.rstrip().rsplit(":", 1)[1])
            if time.monotonic() > deadline:
                raise BenchError("serve did not start listening in time")
        # Drain both pipes so a chatty server can never block on them.
        for pipe in (self.proc.stdout, self.proc.stderr):
            threading.Thread(target=self._drain, args=(pipe,), daemon=True).start()

    @staticmethod
    def _drain(pipe) -> None:
        for _line in pipe:
            pass

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the clean, checkpointing shutdown); SIGKILL if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        return self.proc.returncode

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)


def tree(pid: int) -> list:
    """``pid`` and its live descendants."""
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def shard_workers(server_pid: int) -> list:
    """Spawned shard workers of a router (not its resource tracker)."""
    return [
        p for p in tree(server_pid)[1:]
        if "spawn_main" in cmdline(p) and "resource_tracker" not in cmdline(p)
    ]


def serving_pids(server_pid: int) -> list:
    return [server_pid] + shard_workers(server_pid)


def cpu_seconds(pids) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
        except (OSError, IndexError, ValueError):
            continue
    return total / CLK_TCK


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def disk_mb(paths) -> float:
    total = 0
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirs, files in os.walk(path):
                total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        elif os.path.exists(path):
            total += os.path.getsize(path)
    return total / (1 << 20)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class Client:
    """One keep-alive JSON connection; reconnects after a transport error."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self.conn = None

    def call(self, method: str, path: str, body: dict | None = None):
        """``(status, decoded body)``; status 0 on a transport failure."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
        data = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self.conn.request(method, path, data, headers)
            resp = self.conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            doc = json.loads(raw)
        except ValueError:
            doc = {"error": raw[:200].decode(errors="replace")}
        if resp.getheader("Connection", "").lower() == "close":
            self.close()
        return resp.status, doc

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_timed_phase(port: int, queries: list, readers: int,
                    updates: list, rate: float) -> dict:
    """Closed-loop readers over ``queries`` plus one open-loop writer.

    Readers pull the next request of the fixed list, so every run serves
    the same set.  The writer sends update ``k`` at ``start + k / rate``
    and times it from that due time.  Returns per-op records.
    """
    lock = threading.Lock()
    cursor = iter(range(len(queries)))
    qrec: list = [None] * len(queries)
    urec: list = [None] * len(updates)
    start = time.perf_counter()

    def reader() -> None:
        client = Client(port)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            sent = time.perf_counter()
            status, doc = client.call("POST", "/query", queries[i])
            qrec[i] = (sent, time.perf_counter(), status, doc, sent)
        client.close()

    def writer() -> None:
        client = Client(port)
        for k, body in enumerate(updates):
            due = start + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, doc = client.call("POST", "/update", body)
            urec[k] = (due, sent, time.perf_counter(), status, doc)
        client.close()

    # Daemons: a run stopped by a signal must not wait for its clients.
    threads = [threading.Thread(target=reader, daemon=True) for _ in range(readers)]
    if updates:
        threads.append(threading.Thread(target=writer, daemon=True))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"start": start, "end": time.perf_counter(),
            "queries": qrec, "updates": urec}


def run_write_phase(port: int, updates: list) -> list:
    """One closed-loop writer alone: each update as the last is answered.

    Records have the writer's shape, ``(due, sent, done, status, doc)``,
    with ``due == sent``: nothing else is in flight, so an update's
    latency is its own service time, not a wait for a solve.
    """
    client = Client(port)
    records = []
    for body in updates:
        sent = time.perf_counter()
        status, doc = client.call("POST", "/update", body)
        records.append((sent, sent, time.perf_counter(), status, doc))
    client.close()
    return records


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
