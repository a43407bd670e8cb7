"""Unit tests of the benchmark's own parts: generator, spans, traced launcher.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``; the
workloads themselves run only through ``perfbench/run.py``.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402


def _files(seed: int) -> list[bytes]:
    graph = gen.make_graph(2_000, seed)
    ids = gen.sparse_ids(graph.num_vertices, seed)
    labels = gen.planted_labels(graph, 4, seed)
    batches = gen.churn_batches(graph, 3, 200, seed)
    kind, pick = gen.read_stream(graph.num_vertices, 500, seed)
    return [
        gen.edge_lines(graph.edges),
        gen.edge_lines(ids[graph.edges]),
        gen.assignment_lines(ids, labels),
        *(batch.tobytes() for batch in batches),
        kind.tobytes(),
        pick.tobytes(),
        gen.unseen_ids(ids, 100, seed).tobytes(),
        gen.churn_lookups(2_100, 300, seed).tobytes(),
    ]


def test_same_seed_gives_identical_inputs():
    assert _files(5) == _files(5)
    assert _files(5)[0] != _files(6)[0]


def test_graph_is_simple_with_planted_communities():
    graph = gen.make_graph(3_000, 1)
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    assert graph.edges.shape[0] >= gen.AVG_DEGREE * 3_000 // 2
    assert np.bincount(graph.edges.ravel(), minlength=3_000).min() >= 1
    assert np.all(u < v)
    assert np.unique(u * 3_000 + v).shape[0] == u.shape[0]
    intra = np.mean(graph.community[u] == graph.community[v])
    assert 0.7 < intra < 0.9


def test_churn_edges_are_new_and_free_of_self_loops():
    graph = gen.make_graph(2_000, 3)
    batches = gen.churn_batches(graph, 4, 300, 3)
    assert [batch.shape for batch in batches] == [(300, 2)] * 4
    edges = np.concatenate(batches)
    assert np.all(edges[:, 0] != edges[:, 1])
    space = 10**9
    keys = np.minimum(edges[:, 0], edges[:, 1]) * space + np.maximum(edges[:, 0], edges[:, 1])
    old = graph.edges[:, 0] * space + graph.edges[:, 1]
    assert np.unique(keys).shape[0] == keys.shape[0]
    assert not np.isin(keys, old).any()
    # 1% of each batch attaches a vertex born in that round.
    for r, batch in enumerate(batches):
        born = batch.max(axis=1)[batch.max(axis=1) >= graph.num_vertices]
        assert sorted(born.tolist()) == list(range(2_000 + 3 * r, 2_000 + 3 * r + 3))


def test_planted_partition_is_balanced():
    graph = gen.make_graph(5_000, 2)
    labels = gen.planted_labels(graph, 4, 2)
    degree = np.bincount(graph.edges.ravel(), minlength=graph.num_vertices)
    loads = np.bincount(labels, weights=degree, minlength=4)
    community_loads = np.bincount(graph.community, weights=degree)
    # Greedy least-loaded dealing keeps the spread within one community.
    assert loads.max() - loads.min() <= community_loads.max()
    # Communities stay whole.
    assert all(np.unique(labels[graph.community == c]).shape[0] == 1 for c in range(50))


def test_sparse_and_unseen_ids_are_disjoint():
    ids = gen.sparse_ids(1_000, 4)
    unseen = gen.unseen_ids(ids, 200, 4)
    assert np.unique(ids).shape[0] == 1_000
    assert ids.max() < 1 << gen.SPARSE_ID_BITS
    assert not np.isin(unseen, ids).any()


def _span(span_id, start, end, parent=None, thread=1):
    return (span_id, f"s{span_id}", start, end, parent, thread)


def test_self_time_subtracts_nested_children():
    rows = [_span(1, 0, 100), _span(2, 10, 30, 1), _span(3, 40, 70, 1), _span(4, 45, 50, 3)]
    assert spans.self_times(rows) == {1: 50, 2: 20, 3: 25, 4: 5}


def test_self_time_merges_overlapping_cross_thread_children():
    # Children on two threads overlap on [20, 30]: covered time is 30, not 40.
    rows = [_span(1, 0, 100), _span(2, 10, 30, 1, thread=2), _span(3, 20, 40, 1, thread=3),
            _span(4, 90, 120, 1, thread=2)]
    own = spans.self_times(rows)
    assert own[1] == 100 - 30 - 10
    assert spans.union_ns([(row[2], row[3]) for row in rows[1:]]) == 60


def test_recorder_nests_per_thread():
    recorder = spans.Recorder()
    outer = recorder.begin("outer")
    done = threading.Event()

    def worker():
        token = recorder.begin("other")
        recorder.end(token)
        done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert done.is_set()
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    parents = {span[1]: span[4] for span in recorder.spans}
    assert parents["inner"] == outer[0]
    assert parents["other"] is None
    assert parents["outer"] is None


def test_tracing_changes_no_output(tmp_path):
    pytest.importorskip("repro")
    graph = gen.make_graph(1_000, 9)
    edge_file = tmp_path / "graph.txt"
    edge_file.write_bytes(gen.edge_lines(graph.edges))
    plain = jobs.offline_pipeline(str(edge_file), str(tmp_path), 4, 9)
    recorder = spans.Recorder()
    uninstall = layers.install(recorder)
    try:
        traced = jobs.offline_pipeline(str(edge_file), str(tmp_path), 4, 9)
    finally:
        uninstall()
    for key in ("phi", "rho", "iterations", "labels", "store_bytes"):
        assert traced[key] == plain[key]
    names = {span[1] for span in recorder.spans}
    assert {"io.ingest", "io.open_store", "fast.partition", "io.write_partitioning",
            "quality.locality", "quality.max_normalized_load"} <= names
    assert jobs.offline_checks(traced, graph.edges, 4) == {
        "phi_matches_result": True, "phi_matches_edges": True,
        "partition_file_round_trips": True, "labels_in_range": True,
    }
