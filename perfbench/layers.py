"""Wrappers around the public functions of each layer, for traced runs.

``install(recorder)`` replaces each listed module or class attribute with
a span-recording wrapper and returns a function that restores the
originals.  Nothing under ``src/`` changes: callers that look the name up
at call time (module attribute or method) reach the wrapper.  Span names
are ``<layer>.<operation>``, layers named after the modules.
"""

from __future__ import annotations


def _iterations(recorder, span_id, args, result):
    recorder.note(span_id, "iterations", int(result.iterations))


def _lookups(recorder, span_id, args, result):
    recorder.note(span_id, "lookups", int(len(args[1])))
    recorder.note(span_id, "fallbacks", int(result[1].sum()))


def _lookup(recorder, span_id, args, result):
    recorder.note(span_id, "lookups", 1)
    recorder.note(span_id, "fallbacks", int(result[1]))


def _checkpoint(recorder, span_id, args, result):
    recorder.note(span_id, "written", bool(result))


def targets():
    """``(owner, attribute, span name, observer)`` for every wrapped call."""
    import repro.cli
    import repro.graph.io as gio
    import repro.graph.mmap_store as mmap_store
    import repro.metrics.quality as quality
    from repro.core.fast import FastSpinner
    from repro.pregel.checkpoint import CheckpointManager
    from repro.pregel.serial_executor import SerialExecutor
    from repro.pregel.vector_coordinator import VectorPregelEngine
    from repro.serving.churn import ChurnPipeline
    from repro.serving.store import AssignmentSnapshot, AssignmentStore

    return [
        (gio, "ingest_edge_list", "io.ingest", None),
        (gio, "read_edge_list_csr", "io.read_edge_list", None),
        (gio, "write_partitioning_array", "io.write_partitioning", None),
        (repro.cli, "read_undirected_edge_list", "io.read_edge_list", None),
        (mmap_store, "open_store", "io.open_store", None),
        (FastSpinner, "partition", "fast.partition", _iterations),
        (FastSpinner, "adapt_to_graph_changes", "fast.adapt", _iterations),
        (quality, "locality", "quality.locality", None),
        (quality, "max_normalized_load", "quality.max_normalized_load", None),
        (VectorPregelEngine, "shard_csr", "pregel.shard", None),
        (SerialExecutor, "compute", "pregel.compute", None),
        (SerialExecutor, "deliver", "pregel.deliver", None),
        (SerialExecutor, "commit", "pregel.commit", None),
        (CheckpointManager, "save_vector", "pregel.checkpoint", _checkpoint),
        (AssignmentStore, "warm_start", "store.warm_start", None),
        (AssignmentStore, "publish", "store.publish", None),
        (AssignmentSnapshot, "lookup_many", "store.lookup_many", _lookups),
        (AssignmentSnapshot, "lookup", "store.lookup", _lookup),
        (ChurnPipeline, "bootstrap", "churn.bootstrap", None),
        (ChurnPipeline, "rebase", "churn.rebase", None),
        (ChurnPipeline, "ingest", "churn.ingest", None),
        (ChurnPipeline, "freeze", "churn.freeze", None),
        (ChurnPipeline, "execute", "churn.execute", None),
        (ChurnPipeline, "publish", "churn.publish", None),
    ]


def install(recorder):
    """Wrap every target; returns a function that undoes the wrapping."""
    saved = []
    for owner, attribute, name, observe in targets():
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(original, name, observe))

    def uninstall():
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall
