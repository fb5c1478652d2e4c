"""One pass of the ``serve-mixed`` workload.

Spawns ``repro serve --pool process --pool-workers 2`` on a unix socket
with a fresh CNF cache directory, waits for the first answered ``ping``
(set-up), then drives the seeded request sequence through two
closed-loop connections: each sends its next request only after the
previous reply arrived.  Every result is checked against the expected
table.  The daemon is shut down, and waited for, before the pass returns.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import benchlib
from spans import Tracer

CONNECTIONS = 2
POOL_WORKERS = 2
REQUEST_TIMEOUT_S = 120.0


def _children_by_parent() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # the command name may hold spaces; fields resume after its ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        out.setdefault(ppid, []).append(int(entry))
    return out


def descendants(pid: int) -> list[int]:
    tree = _children_by_parent()
    found, todo = [], [pid]
    while todo:
        for child in tree.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of the given processes."""
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


def _stop(daemon: subprocess.Popen, client) -> None:
    """Shut the daemon down and make sure it and its workers are gone."""
    workers = descendants(daemon.pid)
    if daemon.poll() is None:
        with contextlib.suppress(Exception):
            client.shutdown()
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=30)
    deadline = time.monotonic() + 10
    while workers and time.monotonic() < deadline:
        workers = [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
        time.sleep(0.05)
    for pid in workers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, 9)


def _p50(values: list[float]) -> float:
    return benchlib.percentile(values, 50) if values else 0.0


def serve_pass(root: Path, run_dir: Path, seed: int, tracer: Tracer | None) -> dict:
    from repro import Client, OracleSpec, ServiceError, SynthesisOptions, SynthesisRequest

    span = tracer.span if tracer is not None else (lambda *a: contextlib.nullcontext())
    table = benchlib.load_expected()
    sequence = benchlib.request_sequence(seed)
    requests = [
        SynthesisRequest(
            model=model,
            options=SynthesisOptions(bound=bound, oracle_spec=OracleSpec(oracle=oracle)),
        )
        for model, bound, oracle in sequence
    ]
    seen: set[str] = set()
    repeats = 0
    for request in requests:
        fingerprint = request.fingerprint()
        repeats += fingerprint in seen
        seen.add(fingerprint)

    run_dir.mkdir(parents=True)
    # relative to root (the working directory of both sides), which keeps
    # the socket path short whatever the checkout's location
    socket_path = os.path.relpath(run_dir / "daemon.sock", root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--socket", socket_path,
        "--pool", "process",
        "--pool-workers", str(POOL_WORKERS),
        "--cnf-cache-dir", str(run_dir / "cnf"),
    ]
    with open(run_dir / "daemon.log", "w") as log:
        spawned_at = time.monotonic()
        daemon = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
        )
    client = Client(socket_path, timeout=REQUEST_TIMEOUT_S)
    try:
        while True:
            if daemon.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {daemon.returncode}; see {run_dir}/daemon.log"
                )
            with contextlib.suppress(ServiceError):
                if client.ping():
                    break
            if time.monotonic() - spawned_at > 60:
                raise RuntimeError("daemon did not answer ping within 60 s")
            time.sleep(0.002)
        setup_s = time.monotonic() - spawned_at

        records: list[dict] = [{} for _ in requests]
        cursor = iter(range(len(requests)))
        lock = threading.Lock()

        def connection(name: str) -> None:
            conn = Client(socket_path, timeout=REQUEST_TIMEOUT_S)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                model, bound, oracle = sequence[index]
                key = benchlib.cell_key(model, bound)
                record = records[index]
                start = time.perf_counter()
                try:
                    with span("client.request", str(index)):
                        with span("client.submit"):
                            status, _ = conn.submit(requests[index], client=name)
                        with span("client.result"):
                            job = conn.result(status.job_id, timeout=REQUEST_TIMEOUT_S)
                    record["latency_s"] = time.perf_counter() - start
                    with span("client.status", str(index)):
                        final = conn.status(status.job_id)
                    if job.result is None:
                        record["problems"] = [f"{key}: job {job.state}: {job.error}"]
                        continue
                    sizes, digest = benchlib.suite_fingerprint(
                        job.result.per_axiom, job.result.union
                    )
                    record["problems"] = benchlib.check_cell(table, key, sizes, digest)
                    record["queue_s"] = final.queue_seconds or 0.0
                    record["run_s"] = final.run_seconds or 0.0
                except Exception as exc:  # one failed request must not stop the loop
                    record["problems"] = [f"{key}: {type(exc).__name__}: {exc}"]

        threads = [
            threading.Thread(target=connection, args=(f"conn-{i}",))
            for i in range(CONNECTIONS)
        ]
        drain_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        drain_s = time.perf_counter() - drain_start

        service = client.metrics()
        rss_mb = peak_rss_mb([daemon.pid, *descendants(daemon.pid)])
    finally:
        _stop(daemon, client)

    for record in records:
        record.setdefault("problems", ["no answer"])
    ok = [record for record in records if not record["problems"]]
    # a failed request counts as missing every latency limit
    latencies = [
        REQUEST_TIMEOUT_S if record["problems"] else record["latency_s"]
        for record in records
    ]
    warm = service.get("worker_warm_hits", 0)
    cold = service.get("worker_warm_misses", 0)
    shape_counts = Counter(f"{m}@{b}/{o}" for m, b, o in sequence)
    return {
        "setup_s": setup_s,
        "suite_s": drain_s,
        "jobs_per_s": len(ok) / drain_s,
        "latency_p50_s": benchlib.percentile(latencies, 50),
        "latency_p90_s": benchlib.percentile(latencies, 90),
        "latency_samples": len(latencies),
        "peak_rss_mb": rss_mb,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "problems": [p for record in records for p in record["problems"]],
        "shape_counts": dict(shape_counts),
        "layers": {
            "service.queue_wait_s": _p50([r["queue_s"] for r in ok]),
            "service.run_s": _p50([r["run_s"] for r in ok]),
            "service.wire_s": _p50(
                [r["latency_s"] - r["queue_s"] - r["run_s"] for r in ok]
            ),
            "service.dedup_hits": service.get("dedup_hits", 0),
            "service.warm_hit_rate": warm / (warm + cold) if warm + cold else 0.0,
            "service.repeat_share": repeats / len(requests),
        },
    }
