"""Workload bodies that run inside one system process.

Each body reaches the system only through public functions, looked up on
their modules at call time so that a traced run's wrappers see every
call.  Bodies return plain dictionaries: timings, the deterministic
outputs the runner compares between repetitions, and check results.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np

#: PageRank values under two placements may differ only by summation
#: order; fixed before measuring (observed max |diff| 7.1e-15).
PAGERANK_ATOL = 1e-12
#: Float tolerance for phi recomputed by a different summation order.
PHI_RTOL = 1e-12


def digest(array) -> str:
    """Short content hash of an array (deterministic-output fingerprint)."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def numpy_phi(edges: np.ndarray, labels_of) -> float:
    """Locality of an undirected edge set, computed by the benchmark itself."""
    same = labels_of(edges[:, 0]) == labels_of(edges[:, 1])
    return float(np.count_nonzero(same) / edges.shape[0])


def offline_pipeline(edge_file: str, work: str, k: int, seed: int) -> dict:
    """Edge-list file to partition file plus phi/rho, on the out-of-core tier."""
    import repro.graph.io as gio
    import repro.graph.mmap_store as mmap_store
    import repro.metrics.quality as quality
    from repro.core import fast
    from repro.core.config import SpinnerConfig

    store_dir = os.path.join(work, "store")
    part_file = os.path.join(work, "partition.txt")
    shutil.rmtree(store_dir, ignore_errors=True)
    start = time.monotonic_ns()
    gio.ingest_edge_list(edge_file, store_dir)
    store = mmap_store.open_store(store_dir)
    try:
        result = fast.FastSpinner(SpinnerConfig(seed=seed)).partition(
            store, k, track_history=False
        )
        gio.write_partitioning_array(store.original_ids, result.labels, part_file)
        phi = quality.locality(store, result.labels)
        rho = quality.max_normalized_load(store, result.labels, k)
        elapsed = (time.monotonic_ns() - start) / 1e9
        ids = np.asarray(store.original_ids, dtype=np.int64).copy()
    finally:
        store.close()
    labels = np.asarray(result.labels, dtype=np.int64)
    return {
        "job_s": elapsed,
        "phi": phi,
        "rho": rho,
        "result_phi": float(result.phi),
        "iterations": int(result.iterations),
        "labels": digest(labels),
        "store_bytes": dir_bytes(store_dir),
        "_ids": ids,
        "_labels": labels,
        "_part_file": part_file,
    }


def offline_checks(out: dict, edges: np.ndarray, k: int) -> dict:
    """Output checks for one offline pipeline (name -> passed)."""
    import repro.graph.io as gio

    ids, labels = out["_ids"], out["_labels"]
    dense = np.empty(int(ids.max()) + 1, dtype=np.int64)
    dense[ids] = labels
    written = gio.read_partitioning(out["_part_file"])
    round_trip = (
        len(written) == ids.shape[0]
        and np.array_equal(
            np.fromiter(written.keys(), np.int64, len(written)), np.sort(ids)
        )
        and np.array_equal(
            np.fromiter(written.values(), np.int64, len(written)), dense[np.sort(ids)]
        )
    )
    return {
        "phi_matches_result": abs(out["phi"] - out["result_phi"]) <= PHI_RTOL * out["phi"],
        "phi_matches_edges": abs(numpy_phi(edges, lambda v: dense[v]) - out["phi"])
        <= PHI_RTOL * out["phi"],
        "partition_file_round_trips": bool(round_trip),
        "labels_in_range": bool(labels.min() >= 0 and labels.max() < k),
    }


def analytics_setup(edge_file: str, k: int, seed: int):
    """Load the CSR and compute the Spinner placement (the analytics setup)."""
    import repro.graph.io as gio
    from repro.core import fast
    from repro.core.config import SpinnerConfig

    csr = gio.read_edge_list_csr(edge_file)
    result = fast.FastSpinner(SpinnerConfig(seed=seed)).partition(csr, k)
    return csr, result


APPS = (("pagerank", {"num_iterations": 30}), ("wcc", {}))


def pregel_apps(csr, placement, workers: int, work: str) -> list[dict]:
    """Run PageRank and WCC with checkpoints; one record per app."""
    from repro.apps import make_app_program
    from repro.pregel import VectorPregelEngine

    records = []
    for app, kwargs in APPS:
        checkpoint_dir = os.path.join(work, f"checkpoints-{app}")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        engine = VectorPregelEngine(
            num_workers=workers,
            placement=placement,
            checkpoint_interval=10,
            checkpoint_dir=checkpoint_dir,
        )
        start = time.monotonic_ns()
        result = engine.run_on_csr(make_app_program(app, "vector", **kwargs), csr)
        elapsed = (time.monotonic_ns() - start) / 1e9
        stats = result.stats
        records.append(
            {
                "app": app,
                "job_s": elapsed,
                "start_ns": start,
                "end_ns": start + int(elapsed * 1e9),
                "supersteps": int(result.num_supersteps),
                "messages": int(stats.total_messages),
                "remote": int(stats.remote_messages),
                "sim_time": float(result.simulated_time(engine.cost_model)),
                "values": digest(result.values),
                "checkpoint_bytes": dir_bytes(checkpoint_dir),
                "_values": result.values,
            }
        )
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return records
