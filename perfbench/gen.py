"""Seeded input generator owned by the benchmark.

Everything a workload feeds the system is made here from one seed: the
graph, its sparse-id relabel, a planted assignment file, churn batches
and request streams.  The generator is independent of
``repro.graph.generators`` so that changes to the library cannot move the
workloads.  All steps are vectorised NumPy; the same seed yields
byte-identical files.

Graph model: vertices form planted communities of ``COMMUNITY`` vertices,
each vertex draws a heavy-tailed (Pareto) weight, and every edge picks its
source in proportion to weight and, with probability ``INTRA``, a target
inside the source's community (else anywhere), again in proportion to
weight.  Self-loops and duplicate edges are removed, so every path of the
system (dictionary graph, CSR, out-of-core store) sees the same edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMMUNITY = 100
INTRA = 0.8
AVG_DEGREE = 18
PARETO_SHAPE = 2.5
NEWBORN_FRAC = 0.01
SPARSE_ID_BITS = 40


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over dense ids ``0..n-1``.

    ``edges`` is an ``(m, 2)`` int64 array with ``u < v`` on every row,
    in a seeded random order.  ``community`` is each vertex's planted
    community.
    """

    num_vertices: int
    edges: np.ndarray
    community: np.ndarray
    weight: np.ndarray


def _draw_edges(rng, community, cum, starts, count):
    """Draw ``count`` candidate edges from the planted model.

    ``cum`` is the cumulative vertex weight with a leading 0, vertices laid
    out contiguously by community; ``starts`` is each community's first
    vertex.
    """
    n = cum.shape[0] - 1
    total = cum[-1]
    source = np.minimum(np.searchsorted(cum, rng.random(count) * total, side="right") - 1, n - 1)
    intra = rng.random(count) < INTRA
    first = starts[community[source]]
    low = cum[first]
    high = cum[np.minimum(first + COMMUNITY, n)]
    point = np.where(intra, low + rng.random(count) * (high - low), rng.random(count) * total)
    target = np.minimum(np.searchsorted(cum, point, side="right") - 1, n - 1)
    return source, target


def _canonical(u, v, n):
    """Encode undirected edges as ``min * n + max`` keys."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return lo * n + hi


def _fresh_keys(draw, need, exclude):
    """First ``need`` distinct keys from ``draw(count)`` not in ``exclude``.

    ``exclude`` is a sorted key array.  Keys keep the order in which they
    were drawn, so the result depends only on the seed.
    """
    keys = np.empty(0, dtype=np.int64)
    count = int(need * 1.3) + 64
    while keys.shape[0] < need:
        fresh = draw(count)
        if exclude.shape[0]:
            pos = np.minimum(np.searchsorted(exclude, fresh), exclude.shape[0] - 1)
            fresh = fresh[exclude[pos] != fresh]
        merged = np.concatenate([keys, fresh])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
        count *= 2
    return keys[:need]


def make_graph(num_vertices: int, seed: int) -> Graph:
    """Planted-community, heavy-tailed graph with about ``AVG_DEGREE * n / 2``
    edges and no isolated vertex."""
    rng = np.random.default_rng([seed, 1])
    n = int(num_vertices)
    # Vertices are contiguous per community while edges are drawn; the
    # relabel below hides that layout from id-based placements.
    community = np.arange(n, dtype=np.int64) // COMMUNITY
    weight = rng.pareto(PARETO_SHAPE, n) + 1.0
    cum = np.concatenate([[0.0], np.cumsum(weight)])
    starts = np.arange(0, n, COMMUNITY, dtype=np.int64)

    def draw(count):
        u, v = _draw_edges(rng, community, cum, starts, count)
        keep = u != v
        return _canonical(u[keep], v[keep], n)

    keys = _fresh_keys(draw, AVG_DEGREE * n // 2, np.empty(0, np.int64))
    # An edge-list file cannot name an isolated vertex, so join each one
    # to another member of its community.
    degree = np.bincount(np.concatenate([keys // n, keys % n]), minlength=n)
    lonely = np.flatnonzero(degree == 0)
    if lonely.shape[0]:
        first = starts[community[lonely]]
        size = np.minimum(first + COMMUNITY, n) - first
        mate = first + (lonely - first + 1 + rng.integers(0, size - 1)) % size
        keys = np.unique(np.concatenate([keys, _canonical(lonely, mate, n)]))
        keys = rng.permutation(keys)
    perm = rng.permutation(n).astype(np.int64)
    u = perm[keys // n]
    v = perm[keys % n]
    edges = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n, dtype=np.int64)
    return Graph(n, edges, community[inverse], weight[inverse])


def planted_labels(graph: Graph, k: int, seed: int) -> np.ndarray:
    """Assign whole communities to ``k`` partitions, balanced by load.

    A community's load is the sum of its vertices' degrees (the quantity
    Spinner balances).  Communities go, heaviest first (ties in a seeded
    order), to the least loaded partition.
    """
    rng = np.random.default_rng([seed, 2])
    num_communities = int(graph.community.max()) + 1
    degree = np.bincount(graph.edges.ravel(), minlength=graph.num_vertices)
    load = np.bincount(graph.community, weights=degree, minlength=num_communities)
    shuffled = rng.permutation(num_communities)
    order = shuffled[np.argsort(-load[shuffled], kind="stable")]
    deal = np.empty(num_communities, dtype=np.int64)
    totals = np.zeros(k)
    for c in order.tolist():
        target = int(np.argmin(totals))
        deal[c] = target
        totals[target] += load[c]
    return deal[graph.community]


def sparse_ids(num_vertices: int, seed: int) -> np.ndarray:
    """Distinct ids in ``[0, 2**SPARSE_ID_BITS)`` for dense ids ``0..n-1``."""
    rng = np.random.default_rng([seed, 3])
    ids = np.empty(0, dtype=np.int64)
    while ids.shape[0] < num_vertices:
        draw = rng.integers(0, 1 << SPARSE_ID_BITS, 2 * num_vertices, dtype=np.int64)
        ids = np.unique(np.concatenate([ids, draw]))
    return rng.permutation(ids)[:num_vertices]


def unseen_ids(covered: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` distinct ids in the sparse id space that ``covered`` lacks."""
    rng = np.random.default_rng([seed, 4])
    out = np.empty(0, dtype=np.int64)
    while out.shape[0] < count:
        draw = rng.integers(0, 1 << SPARSE_ID_BITS, 2 * count + 16, dtype=np.int64)
        draw = draw[~np.isin(draw, covered)]
        out = np.unique(np.concatenate([out, draw]))
    return rng.permutation(out)[:count]


def churn_batches(graph: Graph, rounds: int, batch: int, seed: int) -> list[np.ndarray]:
    """``rounds`` batches of exactly ``batch`` new edges each.

    No edge repeats one already in the graph or an earlier batch, and
    none is a self-loop.  A ``NEWBORN_FRAC`` share of each batch attaches
    a vertex born in that round (ids ``n, n+1, ...``) to an existing
    vertex; the rest join existing vertices under the planted model.
    """
    rng = np.random.default_rng([seed, 5])
    n = graph.num_vertices
    newborn = int(round(batch * NEWBORN_FRAC))
    space = n + rounds * newborn
    existing = np.sort(_canonical(graph.edges[:, 0], graph.edges[:, 1], space))
    # Redraw in the planted layout (communities contiguous), then map back.
    order = np.argsort(graph.community, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(graph.weight[order])])
    starts = np.arange(0, n, COMMUNITY, dtype=np.int64)

    def draw(count):
        u, v = _draw_edges(rng, graph.community[order], cum, starts, count)
        u, v = order[u], order[v]
        keep = u != v
        return _canonical(u[keep], v[keep], space)

    old = _fresh_keys(draw, rounds * (batch - newborn), existing)
    out = []
    for r in range(rounds):
        born = n + r * newborn + np.arange(newborn, dtype=np.int64)
        anchors = rng.integers(0, n, newborn, dtype=np.int64)
        keys = np.concatenate(
            [old[r * (batch - newborn):(r + 1) * (batch - newborn)],
             _canonical(anchors, born, space)]
        )
        edges = np.stack([keys // space, keys % space], axis=1)
        out.append(edges[rng.permutation(batch)])
    return out


def zipf_ranks(count: int, population: int, seed: int, exponent: float = 1.1) -> np.ndarray:
    """``count`` Zipf-skewed indices into ``range(population)``.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``(r + 1) ** -exponent``; ranks map to indices through a seeded
    permutation so hot keys are scattered over the id space.
    """
    rng = np.random.default_rng([seed, 6])
    p = np.arange(1, population + 1, dtype=np.float64) ** -exponent
    cum = np.cumsum(p)
    ranks = np.searchsorted(cum, rng.random(count) * cum[-1], side="right")
    ranks = np.minimum(ranks, population - 1)
    return rng.permutation(population)[ranks]


def edge_lines(edges: np.ndarray) -> bytes:
    """Render an edge array as ``u v`` lines (the edge-list file format)."""
    if edges.shape[0] == 0:
        return b""
    return ("\n".join(f"{u} {v}" for u, v in edges.tolist()) + "\n").encode()


def assignment_lines(ids: np.ndarray, labels: np.ndarray) -> bytes:
    """Render a ``vertex partition`` file in ascending id order."""
    order = np.argsort(ids, kind="stable")
    rows = "\n".join(
        f"{v} {p}" for v, p in zip(ids[order].tolist(), labels[order].tolist())
    )
    return ("# partitioning: vertex_id partition\n" + rows + "\n").encode()


def read_stream(num_vertices: int, count: int, seed: int):
    """The serve_read request mix as arrays.

    Returns ``(kind, pick)``: ``kind[i]`` is 0 for a single lookup of a
    covered id, 1 for a single lookup of an unseen id (2% of singles) and
    2 for a ``lookup_batch`` of 32 covered ids (10% of requests);
    ``pick[i]`` holds 32 Zipf-skewed dense ids, of which singles use the
    first.
    """
    rng = np.random.default_rng([seed, 7])
    draw = rng.random(count)
    kind = np.where(draw < 0.10, 2, np.where(draw < 0.10 + 0.90 * 0.02, 1, 0))
    pick = zipf_ranks(count * 32, num_vertices, seed).reshape(count, 32)
    return kind, pick


def churn_lookups(num_ids: int, count: int, seed: int) -> np.ndarray:
    """Uniform lookup ids over ``range(num_ids)`` (newborn ids included)."""
    return np.random.default_rng([seed, 8]).integers(0, num_ids, count)
