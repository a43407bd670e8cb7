"""Repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

Workloads (``design.json`` records why each exists and which end-to-end
metric every per-layer metric should move):

* ``offline``     edge-list file -> out-of-core store -> FastSpinner -> file + phi/rho
* ``analytics``   PageRank + WCC on the vector Pregel engine, Spinner vs hash placement
* ``serve_read``  ``repro serve`` warm start; closed-loop lookups over TCP
* ``serve_churn`` ``repro serve`` cold start; closed-loop churn rounds beside
  open-loop lookups

Each run makes its inputs from ``--seed`` (outside every timed region),
starts ``PROCESSES`` fresh system processes one after another, splits the
``--seconds`` measuring window between them, checks every output, and
prints a detail line and then, as the last line, the result object.
With ``--trace 1`` the first and last process run with the layer
wrappers installed and the result carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import gen  # noqa: E402
import spans as spanlib  # noqa: E402

with open(os.path.join(HERE, "design.json"), encoding="utf-8") as _handle:
    DESIGN = json.load(_handle)

PROCESSES = 3
SERVER_START_TIMEOUT_S = 120
#: Least share of the job time the wrapped layers' spans must cover in a
#: traced run (measured: offline 1.00, analytics 0.98, serve_churn 0.97).
MIN_COVERAGE = 0.9


def median(values):
    return float(statistics.median(values)) if values else 0.0


def tail(values, minimum_beyond: int = 10):
    """``(name, value)`` of the highest of p99/p90/p50 with at least
    ``minimum_beyond`` samples above it; ``(None, None)`` when none has."""
    ordered = sorted(values)
    for q in (0.99, 0.9, 0.5):
        index = int(q * (len(ordered) - 1))
        if len(ordered) - 1 - index >= minimum_beyond:
            return f"p{int(q * 100)}", float(ordered[index])
    return None, None


def timing(values) -> dict:
    """Median, tail percentile and sample count of one timing (and the
    samples themselves when there are few)."""
    name, value = tail(values)
    out = {"median": median(values), "tail": [name, value], "samples": len(values)}
    if len(values) <= 100:
        out["values"] = values
    return out


def host_probe() -> float:
    """Fixed CPU task (sorts plus an interpreter loop); diagnostic only."""
    start = time.perf_counter()
    values = np.random.default_rng(0).integers(0, 1 << 40, 1_000_000)
    for _ in range(3):
        np.sort(values)
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - start


class Run:
    """One benchmark invocation: work directory, children and check ledger."""

    def __init__(self, args) -> None:
        self.args = args
        self.seed = args.seed
        self.root = os.getcwd()
        self.work = os.path.join(
            self.root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.env["TMPDIR"] = self.work
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.detail: dict = {}
        self.traced_spans: list[dict] = []
        self.processes: list[subprocess.Popen] = []

    # -- ledger ---------------------------------------------------------
    def check(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)

    def checks(self, results: dict) -> None:
        for name, passed in results.items():
            self.check(name, bool(passed))

    def ops(self, attempted: int, failed: int, name: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name} x{failed}")

    def same(self, name: str, values: list) -> None:
        """Deterministic outputs must repeat exactly between processes."""
        self.check(f"repeat:{name}", all(value == values[0] for value in values))

    # -- processes ------------------------------------------------------
    def plan(self) -> list[bool]:
        """Which of the run's processes are traced."""
        if self.args.trace:
            return [True, False, True]
        return [False] * PROCESSES

    def window(self) -> float:
        return self.args.seconds / PROCESSES

    def spawn(self, mode: str, traced: bool, **spec):
        """Start ``launch.py`` on a fresh spec; returns (process, path, t_spawn)."""
        path = os.path.join(self.work, f"child{len(self.processes)}.json")
        spec.update(mode=mode, trace=traced)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        stderr = open(path + ".log", "wb")
        t_spawn = time.monotonic_ns()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launch.py"), path],
            cwd=self.work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        stderr.close()
        self.processes.append(process)
        return process, path, t_spawn

    def collect(self, process, path: str, traced: bool, timeout: float = 170) -> dict:
        """Wait for a child and load its results (and spans when traced)."""
        try:
            process.communicate(timeout=timeout)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0:
            with open(path + ".log", encoding="utf-8", errors="replace") as handle:
                sys.stderr.write(handle.read()[-4000:])
            raise RuntimeError(f"system process exited with {process.returncode}")
        with open(path + ".out.json", encoding="utf-8") as handle:
            out = json.load(handle)
        if traced:
            with open(path + ".spans.json", encoding="utf-8") as handle:
                self.traced_spans.append(json.load(handle))
        return out

    def close(self) -> None:
        """Stop any system process still running, then drop the work directory."""
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()
            if process.stdout is not None:
                process.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def repeat_across_runs(self, outputs: dict) -> None:
        """Compare deterministic outputs with an earlier run of the same seed.

        Keyed by workload, seed, run length and a digest of the system's and
        the benchmark's sources, so a change to either starts a fresh record.
        """
        digest = hashlib.sha256()
        for tree in (os.path.join(self.root, "src"), HERE):
            for directory, _dirs, files in sorted(os.walk(tree)):
                for name in sorted(files):
                    if name.endswith((".py", ".json")):
                        with open(os.path.join(directory, name), "rb") as handle:
                            digest.update(handle.read())
        key = (f"{self.args.workload}-{self.seed}-{self.args.seconds:g}-"
               f"{digest.hexdigest()[:16]}.json")
        path = os.path.join(self.root, ".bench_work", "outputs", key)
        canonical = json.loads(json.dumps(outputs))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.check("repeat:across_runs", json.load(handle) == canonical)
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(canonical, handle)


# ----------------------------------------------------------------------
# per-layer helpers
# ----------------------------------------------------------------------
def span_table(dump: dict):
    """Spans of one traced process with self times and notes attached."""
    rows = [tuple(span) for span in dump["spans"]]
    own = spanlib.self_times(rows)
    notes = {int(key): value for key, value in dump["notes"].items()}
    by_id = {row[0]: row for row in rows}
    return [
        {
            "id": row[0], "name": row[1], "start": row[2], "end": row[3],
            "parent": by_id.get(row[4]), "thread": row[5],
            "dur": (row[3] - row[2]) / 1e9, "self": own[row[0]] / 1e9,
            **notes.get(row[0], {}),
        }
        for row in rows
    ]


def within(rows, windows):
    """Rows whose span starts inside one of the ``(start, end)`` windows."""
    return [r for r in rows if any(a <= r["start"] < b for a, b in windows)]


def total(rows, name, field="self"):
    return sum(r[field] for r in rows if r["name"] == name)


def covered(rows, names, windows) -> float:
    """Seconds of the windows covered by the union of the named spans."""
    out = 0
    for a, b in windows:
        out += spanlib.union_ns([(max(r["start"], a), min(r["end"], b)) for r in rows
                                 if r["name"] in names and r["start"] < b and r["end"] > a])
    return out / 1e9


def cold_partitions(rows):
    return [r for r in rows if r["name"] == "fast.partition"
            and not (r["parent"] and r["parent"][1] == "fast.adapt")]


def zero_layers() -> dict:
    """Every per-layer metric at 0 (layers a workload does not exercise)."""
    return {name: 0.0 for name in DESIGN["per_layer_map"]}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def write_graph(run: Run, edges: np.ndarray) -> tuple[str, str]:
    edge_file = os.path.join(run.work, "graph.txt")
    with open(edge_file, "wb") as handle:
        handle.write(gen.edge_lines(edges))
    edges_npy = os.path.join(run.work, "edges.npy")
    np.save(edges_npy, edges)
    return edge_file, edges_npy


def offline(run: Run):
    size = DESIGN["sizes"]["offline"]
    graph = gen.make_graph(size["vertices"], run.seed)
    edge_file, edges_npy = write_graph(run, graph.edges)
    setups, jobs_untraced, jobs_traced, rss, reps = [], [], [], [], []
    tables = []
    for traced in run.plan():
        child_work = os.path.join(run.work, f"offline{len(setups)}")
        os.makedirs(child_work)
        process, path, t_spawn = run.spawn(
            "offline", traced, edge_file=edge_file, edges=edges_npy, work=child_work,
            k=size["k"], seed=run.seed, window_s=run.window(),
        )
        out = run.collect(process, path, traced)
        setups.append((out["t_first_ns"] - t_spawn) / 1e9)
        rss.append(out["rss_mb"])
        for rep in out["reps"]:
            run.checks(rep.pop("checks"))
            (jobs_traced if traced else jobs_untraced).append(rep["job_s"])
            reps.append(rep)
        run.ops(len(out["reps"]), 0, "pipeline")
        if traced:
            tables.append(span_table(run.traced_spans[-1]))
    for key in ("phi", "rho", "iterations", "labels", "store_bytes"):
        run.same(key, [rep[key] for rep in reps])
    run.repeat_across_runs({key: reps[0][key] for key in ("phi", "rho", "iterations", "labels")})
    metrics = {
        "setup_s": median(setups), "job_s": median(jobs_untraced),
        "peak_rss_mb": median(rss), "phi": reps[0]["phi"], "rho": reps[0]["rho"],
    }
    run.detail.update(pipeline_s=timing(jobs_untraced), setup_s=setups,
                      iterations=reps[0]["iterations"])
    layers = None
    if tables:
        layers = zero_layers()
        rows = [r for table in tables for r in table]
        units = len(jobs_traced)
        cold = cold_partitions(rows)
        layers.update({
            "io.ingest_s": total(rows, "io.ingest") / units,
            "io.store_mb": reps[0]["store_bytes"] / 1e6,
            "io.write_partitioning_s": total(rows, "io.write_partitioning") / units,
            "fast.partition_s": sum(r["self"] for r in cold) / len(cold),
            "fast.iterations": reps[0]["iterations"],
            "fast.s_per_iteration": sum(r["self"] for r in cold)
            / sum(r["iterations"] for r in cold),
            "quality.s": (total(rows, "quality.locality")
                          + total(rows, "quality.max_normalized_load")) / units,
        })
        windows = [(r["start"], r["end"]) for r in rows if r["name"] == "io.ingest"]
        pipeline_names = {"io.ingest", "io.open_store", "fast.partition",
                          "io.write_partitioning", "quality.locality",
                          "quality.max_normalized_load"}
        layers["trace.coverage_frac"] = (
            sum(covered(rows, pipeline_names, [(a, a + int(j * 1e9))])
                for (a, _), j in zip(windows, jobs_traced)) / sum(jobs_traced)
        )
        layers["trace.overhead_frac"] = median(jobs_traced) / median(jobs_untraced) - 1
    return metrics, layers


def analytics(run: Run):
    size = DESIGN["sizes"]["analytics"]
    graph = gen.make_graph(size["vertices"], run.seed)
    edge_file, edges_npy = write_graph(run, graph.edges)
    setups, rss, jobs_untraced, jobs_traced = [], [], [], []
    outs, tables, job_windows = [], [], []
    for index, traced in enumerate(run.plan()):
        child_work = os.path.join(run.work, f"analytics{index}")
        os.makedirs(child_work)
        process, path, t_spawn = run.spawn(
            "analytics", traced, edge_file=edge_file, edges=edges_npy, work=child_work,
            k=size["k"], seed=run.seed, window_s=run.window(), reference=index == 0,
        )
        out = run.collect(process, path, traced)
        outs.append(out)
        setups.append((out["t_first_ns"] - t_spawn) / 1e9)
        rss.append(out["rss_mb"])
        run.checks(out["checks"])
        run.ops(len(out["reps"]) * 2 + (2 if index == 0 else 0), 0, "app run")
        for records in out["reps"]:
            job = sum(r["job_s"] for r in records)
            (jobs_traced if traced else jobs_untraced).append(job)
        if traced:
            tables.append(span_table(run.traced_spans[-1]))
            job_windows.append([(recs[0]["start_ns"], recs[-1]["end_ns"])
                                for recs in out["reps"]])
    first = outs[0]["reps"][0]
    for key in ("phi", "rho", "iterations", "labels"):
        run.same(key, [out[key] for out in outs])
    for field in ("supersteps", "messages", "remote", "sim_time", "values"):
        run.same(field, [[r[field] for r in recs] for out in outs for recs in out["reps"]])
    hashed = outs[0]["hash"]
    sim_speedup = sum(r["sim_time"] for r in hashed) / sum(r["sim_time"] for r in first)
    run.repeat_across_runs({
        **{key: outs[0][key] for key in ("phi", "rho", "iterations", "labels")},
        **{key: [r[key] for r in first] for key in ("supersteps", "messages", "values")},
        "sim_speedup": sim_speedup,
    })
    metrics = {
        "setup_s": median(setups), "job_s": median(jobs_untraced),
        "peak_rss_mb": median(rss), "phi": outs[0]["phi"], "rho": outs[0]["rho"],
    }
    run.detail.update(
        job_s=timing(jobs_untraced), setup_s=setups,
        sim_speedup=sim_speedup, pagerank_max_diff=outs[0]["pagerank_max_diff"],
        supersteps=[r["supersteps"] for r in first],
        messages=[r["messages"] for r in first],
        app_s={r["app"]: r["job_s"] for r in first},
    )
    layers = None
    if tables:
        layers = zero_layers()
        units = len(jobs_traced)
        jobs_rows = [r for table, windows in zip(tables, job_windows)
                     for r in within(table, windows)]
        setup_rows = [r for table, windows in zip(tables, job_windows)
                      for r in table if r["end"] <= windows[0][0]]
        cold = cold_partitions(setup_rows)
        pregel_names = ("pregel.shard", "pregel.compute", "pregel.deliver",
                        "pregel.commit", "pregel.checkpoint")
        layers.update({
            "io.read_edge_list_s": total(setup_rows, "io.read_edge_list") / len(tables),
            "fast.partition_s": sum(r["self"] for r in cold) / len(cold),
            "fast.iterations": cold[0]["iterations"],
            "fast.s_per_iteration": sum(r["self"] for r in cold)
            / sum(r["iterations"] for r in cold),
            "pregel.shard_s": total(jobs_rows, "pregel.shard") / units,
            "pregel.compute_s": total(jobs_rows, "pregel.compute") / units,
            "pregel.deliver_s": total(jobs_rows, "pregel.deliver") / units,
            "pregel.commit_s": total(jobs_rows, "pregel.commit") / units,
            "pregel.checkpoint_s": total(jobs_rows, "pregel.checkpoint") / units,
            "pregel.checkpoint_mb": sum(r["checkpoint_bytes"] for r in first) / 1e6,
            "pregel.supersteps": sum(r["supersteps"] for r in first),
            "pregel.messages": sum(r["messages"] for r in first),
            "pregel.remote_frac": sum(r["remote"] for r in first)
            / sum(r["messages"] for r in first),
            "pregel.sim_speedup": sim_speedup,
        })
        windows = [w for ws in job_windows for w in ws]
        layers["trace.coverage_frac"] = (
            sum(covered(table, set(pregel_names), ws)
                for table, ws in zip(tables, job_windows))
            / sum((b - a) / 1e9 for a, b in windows)
        )
        layers["trace.overhead_frac"] = median(jobs_traced) / median(jobs_untraced) - 1
    return metrics, layers


# -- serving -------------------------------------------------------------
def start_server(run: Run, traced: bool, argv: list[str]):
    """Launch ``repro serve``; returns (process, spec path, port, setup_s)."""
    process, path, t_spawn = run.spawn("serve", traced, argv=["serve", *argv])
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        text = line.decode(errors="replace").strip()
        if text.startswith("serving on "):
            setup = (time.monotonic_ns() - t_spawn) / 1e9
            port = int(text.rsplit(":", 1)[1])
            return process, path, port, setup
    process.kill()
    process.wait()
    raise RuntimeError("server did not announce its port")


def stop_server(run: Run, process, path: str, traced: bool, control) -> dict:
    """Send ``shutdown`` and collect the server process's results."""
    reply = control.call({"op": "shutdown"})
    control.close()
    run.check("shutdown_ok", reply.get("ok") is True)
    out = run.collect(process, path, traced)
    run.check("server_exit_0", out["exit_code"] == 0)
    return out


def read_assignment(path: str):
    data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    return data[:, 0], data[:, 1]


def serve_read(run: Run):
    size = DESIGN["sizes"]["serve_read"]
    k = size["k"]
    graph = gen.make_graph(size["vertices"], run.seed)
    ids = gen.sparse_ids(graph.num_vertices, run.seed)
    labels = gen.planted_labels(graph, k, run.seed)
    edge_file, _ = write_graph(run, ids[graph.edges])
    assignment_file = os.path.join(run.work, "planted.txt")
    with open(assignment_file, "wb") as handle:
        handle.write(gen.assignment_lines(ids, labels))
    count = size["requests"]
    kind, pick = gen.read_stream(graph.num_vertices, count, run.seed)
    unseen = gen.unseen_ids(ids, count, run.seed)
    requests, expected = [], []
    for i in range(count):
        if kind[i] == 2:
            requests.append(client.encode({"op": "lookup_batch",
                                           "vertices": ids[pick[i]].tolist()}))
            want = {"partitions": labels[pick[i]].tolist(), "fallbacks": []}
        elif kind[i] == 1:
            requests.append(client.encode({"op": "lookup", "vertex": int(unseen[i])}))
            want = {"fallback": True}
        else:
            vertex = pick[i, 0]
            requests.append(client.encode({"op": "lookup", "vertex": int(ids[vertex])}))
            want = {"partition": int(labels[vertex]), "fallback": False}
        expected.append(want)
    # The reply the protocol documents, byte for byte; a reply that differs
    # is decoded and judged field by field instead.
    exact = [client.encode({"ok": True, "version": 1, **want}) for want in expected]
    vertices_per = [32 if c == 2 else 1 for c in kind.tolist()]

    # Client and servers share one CPU, so a lockstep batch hands over by a
    # context switch on that CPU.  Left to the scheduler, the two sometimes
    # ran on one CPU and sometimes on two, and block times split into two
    # modes up to 2x apart between server processes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups, rss, blocks, latencies, rates = [], [], [], [], []
    tables, windows, traced_stats, process_blocks = [], [], [], []
    phis, rhos = [], []
    for traced in run.plan():
        process, path, port, setup = start_server(run, traced, [
            "--edge-list", edge_file, "--assignment", assignment_file,
            "-k", str(k), "--log-interval", "0", "--seed", str(run.seed),
        ])
        setups.append(setup)
        control = client.Connection(port)
        before = control.call({"op": "stats"})["stats"]
        start = time.monotonic_ns()
        replies, latency, block_ns = client.closed_loop(
            port, requests, connections=size["connections"], depth=size["depth"],
            block=size["block"],
            window_s=run.window(),
        )
        end = time.monotonic_ns()
        after = control.call({"op": "stats"})["stats"]
        quality = control.call({"op": "quality"})
        out = stop_server(run, process, path, traced, control)
        rss.append(out["rss_mb"])
        phis.append(quality["phi"])
        rhos.append(quality["rho"])
        wrong = 0
        answered = 0
        for index, line in replies:
            i = index % count
            answered += vertices_per[i]
            if line + b"\n" == exact[i]:
                continue
            reply = json.loads(line)
            want = expected[i]
            good = reply.get("ok") is True and reply.get("version") == 1 and all(
                reply.get(key) == value for key, value in want.items()
            )
            if "partitions" not in want:
                good = good and 0 <= reply.get("partition", -1) < k
            wrong += not good
        run.ops(len(replies), wrong, "wrong lookup reply")
        if not traced:
            blocks.extend(block_ns)
            process_blocks.append(sum(block_ns) / len(block_ns) / 1e9)
            latencies.extend(latency)
            rates.append(answered / ((end - start) / 1e9))
        if traced:
            tables.append(span_table(run.traced_spans[-1]))
            windows.append((start, end, len(block_ns), answered))
            traced_stats.append((before, after))
    run.same("phi", phis)
    run.same("rho", rhos)
    run.repeat_across_runs({"phi": phis[0], "rho": rhos[0]})
    lat_ms = [x / 1e6 for x in latencies]
    _, p_value = tail(lat_ms)
    # job_s is the mean block time over the whole window, i.e. the block
    # size over the request rate.  The host alternates between a fast and a
    # slow speed for seconds at a time; a median jumps between the two as
    # the share of slow time crosses one half, a mean moves with that share.
    metrics = {
        "setup_s": median(setups), "job_s": sum(blocks) / len(blocks) / 1e9,
        "peak_rss_mb": median(rss), "phi": phis[0], "rho": rhos[0],
    }
    run.detail.update(
        block_s=timing([b / 1e9 for b in blocks]), block_requests=size["block"],
        block_mean_s_per_process=process_blocks,
        setup_s=setups, lookups_per_s=median(rates), lookup_ms=timing(lat_ms),
    )
    layers = None
    if tables:
        layers = zero_layers()
        units = sum(w[2] for w in windows)
        window_rows = [r for table, w in zip(tables, windows) for r in within(table, [w[:2]])]
        setup_rows = [r for table, w in zip(tables, windows) for r in table if r["end"] <= w[0]]
        look = [r for r in window_rows if r["name"] in ("store.lookup_many", "store.lookup")]
        lookups = sum(r["lookups"] for r in look)
        requests_served = sum(a["lookups_total"] - b["lookups_total"]
                              for b, a in traced_stats)
        busy = sum(covered(table, {"store.lookup_many", "store.lookup"}, [w[:2]])
                   for table, w in zip(tables, windows))
        wall = sum((w[1] - w[0]) / 1e9 for w in windows)
        layers.update({
            "io.read_edge_list_s": total(setup_rows, "io.read_edge_list") / len(tables),
            "store.warm_start_s": total(setup_rows, "store.warm_start") / len(tables),
            "churn.rebase_s": total(setup_rows, "churn.rebase") / len(tables),
            "store.lookup_many_s": sum(r["self"] for r in look) / units,
            "store.lookups": lookups / units,
            "store.fallback_frac": sum(r["fallbacks"] for r in look) / lookups,
            "service.requests": requests_served / units,
            "service.depth_mean": median([a["pipeline_depth_mean"] for _, a in traced_stats]),
            "service.dispatch_p50_us": median([a["latency_p50_s"] * 1e6
                                               for _, a in traced_stats]),
            "service.wire_frac": 1 - busy / wall,
            "client.lookups_per_s": sum(w[3] for w in windows) / wall,
            "client.lookup_p50_ms": median(lat_ms),
            "client.lookup_tail_ms": p_value,
            "trace.coverage_frac": busy / wall,
        })
        layers["trace.overhead_frac"] = median(rates) / layers["client.lookups_per_s"] - 1
    return metrics, layers


def serve_churn(run: Run):
    size = DESIGN["sizes"]["serve_churn"]
    k = size["k"]
    rounds = max(2, int(run.args.seconds * size["rounds_per_second"] / PROCESSES))
    graph = gen.make_graph(size["vertices"], run.seed)
    batches = gen.churn_batches(graph, rounds, size["batch"], run.seed)
    edge_file, _ = write_graph(run, graph.edges)
    n = graph.num_vertices
    newborn_per_round = int(round(size["batch"] * gen.NEWBORN_FRAC))
    total_ids = n + rounds * newborn_per_round
    born_round = np.full(total_ids, -1, dtype=np.int64)
    born_round[n:] = np.repeat(np.arange(rounds), newborn_per_round)
    ingests = []
    for r, batch in enumerate(batches):
        born = list(range(n + r * newborn_per_round, n + (r + 1) * newborn_per_round))
        ingests.append({"op": "ingest", "edges": batch.tolist(), "vertices": born})
    lookup_ids = gen.churn_lookups(total_ids, 100_000, run.seed)
    lookup_requests = [client.encode({"op": "lookup", "vertex": int(v)}) for v in lookup_ids]
    all_edges = np.concatenate([graph.edges, *batches])

    setups, rss, staleness, lat, late = [], [], [], [], []
    finals, per_round, tables, round_windows = [], [], [], []
    for traced in run.plan():
        save_file = os.path.join(run.work, f"final{len(setups)}.txt")
        process, path, port, setup = start_server(run, traced, [
            "--edge-list", edge_file, "-k", str(k), "--edge-threshold", str(size["batch"]),
            "--log-interval", "0", "--seed", str(run.seed), "--save-assignment", save_file,
        ])
        setups.append(setup)
        control = client.Connection(port)
        lookups = client.OpenLoop(port, lookup_requests, size["lookup_rate"])
        lookups.start()
        stale, windows, reports = [], [], []
        try:
            for r in range(rounds):
                start = time.monotonic_ns()
                reply = control.call(ingests[r])
                run.check("ingest_accepted", reply.get("ok") is True
                          and reply.get("added_edges") == size["batch"])
                waited = control.call({"op": "wait_version", "version": r + 2,
                                       "timeout": 120})
                end = time.monotonic_ns()
                run.ops(1, 0 if waited.get("ok") else 1, "round")
                run.check("version_gapless", waited.get("version") == r + 2)
                stale.append((end - start) / 1e9)
                windows.append((start, end))
                report = control.call({"op": "stats"})["stats"]["last_repartition"]
                # ``migrations`` is exact; every vertex of the previous
                # snapshot is still in the graph.
                previous = n + r * newborn_per_round
                reports.append((report["version"], report["phi"], report["rho"],
                                report["iterations"], report["migrations"] / previous))
        finally:
            lookups.stop_event.set()
            lookups.join(timeout=60)
        run.check("lookup_client_ok", lookups.error is None and not lookups.is_alive())
        stats = control.call({"op": "stats"})["stats"]
        run.check("repartitions_equal_rounds", stats["repartitions"] == rounds + 1)
        quality = control.call({"op": "quality"})
        final = control.call({"op": "lookup_batch", "vertices": list(range(total_ids))})
        out = stop_server(run, process, path, traced, control)
        rss.append(out["rss_mb"])
        saved_ids, saved_labels = read_assignment(save_file)
        final_labels = np.asarray(final["partitions"], dtype=np.int64)
        run.check("final_lookup_equals_saved", np.array_equal(saved_ids, np.arange(total_ids))
                  and np.array_equal(saved_labels, final_labels) and final["fallbacks"] == [])
        phi_edges = float(np.mean(final_labels[all_edges[:, 0]] == final_labels[all_edges[:, 1]]))
        run.check("phi_matches_edges", abs(phi_edges - quality["phi"]) <= 1e-12 * quality["phi"])
        wrong = 0
        last_version = 0
        for index, line in enumerate(lookups.lines):
            reply = json.loads(line)
            vertex = int(lookup_ids[index])
            version = reply.get("version", -1)
            born = born_round[vertex]
            covered_now = born < 0 or version >= born + 2
            wrong += not (
                reply.get("ok") is True and version >= last_version
                and 0 <= reply.get("partition", -1) < k
                and reply.get("fallback") is (not covered_now)
            )
            last_version = max(last_version, version)
        run.ops(len(lookups.lines), wrong, "wrong lookup reply")
        finals.append((quality["phi"], quality["rho"], final_labels.tobytes()))
        per_round.append(reports)
        if not traced:
            staleness.extend(stale)
            lat.extend(x / 1e6 for x in lookups.latency_ns)
        late.extend(x / 1e6 for x in lookups.late_ns)
        if traced:
            tables.append(span_table(run.traced_spans[-1]))
            round_windows.append(windows)
    run.same("final_phi_rho_labels", finals)
    run.same("per_round_reports", per_round)
    phi, rho = finals[0][0], finals[0][1]
    migration = float(np.mean([rep[4] for rep in per_round[0]]))
    run.repeat_across_runs({"phi": phi, "rho": rho, "per_round": per_round[0]})
    _, p_value = tail(lat)
    metrics = {
        "setup_s": median(setups), "job_s": median(staleness),
        "peak_rss_mb": median(rss), "phi": phi, "rho": rho,
    }
    run.detail.update(
        rounds_per_server=rounds, staleness_s=timing(staleness), setup_s=setups,
        migration_frac=migration, iterations=[rep[3] for rep in per_round[0]],
        lookup_ms=timing(lat),
    )
    layers = None
    if tables:
        layers = zero_layers()
        units = sum(len(w) for w in round_windows)
        rows = [r for table, ws in zip(tables, round_windows) for r in within(table, ws)]
        setup_rows = [r for table, ws in zip(tables, round_windows)
                      for r in table if r["end"] <= ws[0][0]]
        cold = cold_partitions(setup_rows)
        adapt = [r for r in rows if r["name"] == "fast.adapt"]
        loop_thread = next(r["thread"] for r in rows if r["name"] == "churn.ingest")
        loop_rows = [r for r in rows if r["thread"] == loop_thread
                     and r["name"].startswith(("churn.", "store.publish"))]
        names = {"churn.ingest", "churn.freeze", "churn.execute", "churn.publish"}
        round_s = sum((b - a) / 1e9 for ws in round_windows for a, b in ws)
        _, late_value = tail(late)
        layers.update({
            "io.read_edge_list_s": total(setup_rows, "io.read_edge_list") / len(tables),
            "churn.bootstrap_s": total(setup_rows, "churn.bootstrap", "dur") / len(tables),
            "fast.partition_s": sum(r["self"] for r in cold) / len(cold),
            "fast.iterations": cold[0]["iterations"],
            "fast.s_per_iteration": sum(r["self"] for r in cold)
            / sum(r["iterations"] for r in cold),
            "fast.adapt_s": sum(r["dur"] for r in adapt) / units,
            "fast.adapt_iterations": sum(r["iterations"] for r in adapt) / units,
            "store.publish_s": total(rows, "store.publish") / units,
            "churn.ingest_s": total(rows, "churn.ingest") / units,
            "churn.freeze_s": total(rows, "churn.freeze") / units,
            "churn.execute_s": total(rows, "churn.execute") / units,
            "churn.publish_s": total(rows, "churn.publish") / units,
            "churn.loop_block_max_ms": max(r["dur"] for r in loop_rows) * 1e3,
            "churn.repartitions": sum(1 for r in rows if r["name"] == "churn.publish")
            / len(tables),
            "churn.migration_frac": migration,
            "client.lookup_p50_ms": median(lat),
            "client.lookup_tail_ms": p_value,
            "client.late_p99_ms": late_value,
            "trace.coverage_frac": sum(covered(table, names, ws) for table, ws
                                       in zip(tables, round_windows)) / round_s,
        })
        layers["trace.overhead_frac"] = (round_s / units) / median(staleness) - 1
    return metrics, layers


WORKLOADS = {"offline": offline, "analytics": analytics,
             "serve_read": serve_read, "serve_churn": serve_churn}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DESIGN["seeds"]["default"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("run from the repository root: src/repro not found", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        probe_before = host_probe()
        metrics, layers = WORKLOADS[args.workload](run)
        probe_after = host_probe()
    finally:
        run.close()
    if layers is not None and args.workload != "serve_read":
        # serve_read's job is mostly wire time, which has no public function.
        run.check("trace_coverage", layers["trace.coverage_frac"] >= MIN_COVERAGE)
    metrics["ok_frac"] = 1 - run.failed / run.attempted
    run.detail.update(workload=args.workload, seed=args.seed, failures=run.failures,
                      host_probe_s=[probe_before, probe_after])
    print(json.dumps({"detail": run.detail, "end_to_end": metrics, "per_layer": layers}))
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    chosen = layers if args.trace else metrics
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
