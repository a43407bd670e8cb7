"""Entry point of one system process: ``python3 launch.py SPEC.json``.

The spec names a mode (``offline``, ``analytics`` or ``serve``), its
inputs, how long to measure and whether to trace.  With tracing on, the
layer wrappers are installed before any system code runs, and the spans
are written to ``SPEC.spans.json`` when the process ends.  The process
writes its results to ``SPEC.out.json``; ``t_first_ns`` is the monotonic
clock (shared with the parent on Linux) just before the first timed call.
``rss_mb`` is the peak resident size after the first repetition, so it does
not depend on how many repetitions fit in the window.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

import jobs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _public(record: dict) -> dict:
    """Drop the in-memory arrays (keys starting with ``_``)."""
    return {key: value for key, value in record.items() if not key.startswith("_")}


def run_offline(spec: dict) -> dict:
    edges = np.load(spec["edges"])
    t_first = time.monotonic_ns()
    reps = []
    while not reps or time.monotonic_ns() - t_first < spec["window_s"] * 1e9:
        out = jobs.offline_pipeline(spec["edge_file"], spec["work"], spec["k"], spec["seed"])
        out["checks"] = jobs.offline_checks(out, edges, spec["k"])
        reps.append(_public(out))
        if len(reps) == 1:
            rss = peak_rss_mb()
    return {"t_first_ns": t_first, "reps": reps, "rss_mb": rss}


def run_analytics(spec: dict) -> dict:
    from repro.metrics import quality
    from repro.pregel.worker import hash_placement, partition_placement

    k = spec["k"]
    csr, result = jobs.analytics_setup(spec["edge_file"], k, spec["seed"])
    ids = np.asarray(csr.original_ids, dtype=np.int64)
    placement = partition_placement(dict(zip(ids.tolist(), result.labels.tolist())), k)
    t_first = time.monotonic_ns()
    reps = []
    while not reps or time.monotonic_ns() - t_first < spec["window_s"] * 1e9:
        records = jobs.pregel_apps(csr, placement, k, spec["work"])
        reps.append(records)
        if len(reps) == 1:
            rss = peak_rss_mb()
    out = {
        "t_first_ns": t_first,
        "rss_mb": rss,
        "reps": [[_public(r) for r in records] for records in reps],
        "phi": quality.locality(csr, result.labels),
        "rho": quality.max_normalized_load(csr, result.labels, k),
        "iterations": int(result.iterations),
        "labels": jobs.digest(result.labels),
    }
    edges = np.load(spec["edges"])
    dense = np.empty(int(ids.max()) + 1, dtype=np.int64)
    dense[ids] = result.labels
    phi_edges = jobs.numpy_phi(edges, lambda v: dense[v])
    checks = {
        "phi_matches_edges": abs(phi_edges - out["phi"]) <= jobs.PHI_RTOL * out["phi"]
    }
    if spec["reference"]:
        # Fig. 9 reference: the same apps under hash placement.
        hashed = jobs.pregel_apps(csr, hash_placement(k), k, spec["work"])
        spinner = reps[0]
        checks["wcc_same_components"] = bool(
            np.array_equal(spinner[1]["_values"], hashed[1]["_values"])
        )
        checks["pagerank_agrees"] = bool(
            np.allclose(spinner[0]["_values"], hashed[0]["_values"], rtol=0,
                        atol=jobs.PAGERANK_ATOL)
        )
        out["pagerank_max_diff"] = float(
            np.abs(spinner[0]["_values"] - hashed[0]["_values"]).max()
        )
        out["hash"] = [_public(r) for r in hashed]
    out["checks"] = checks
    return out


def run_serve(spec: dict) -> dict:
    import repro.cli

    code = repro.cli.main(spec["argv"])
    return {"exit_code": code, "rss_mb": peak_rss_mb()}


MODES = {"offline": run_offline, "analytics": run_analytics, "serve": run_serve}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    recorder = None
    if spec["trace"]:
        import layers
        import spans

        recorder = spans.Recorder()
        layers.install(recorder)
    out = MODES[spec["mode"]](spec)
    if recorder is not None:
        recorder.dump(spec_path + ".spans.json")
    with open(spec_path + ".out.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
