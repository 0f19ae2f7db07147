"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are marginadapt's modules; `errors` does no work and is not traced.
Every metric is per operation (a mean over the traced operations), so call
and row counts repeat exactly from run to run. There are no queues or
threads in the package, so no layer has a wait time to report.
"""

from __future__ import annotations

import numpy as np

from tracer import Target, Tracer


def _after_insert(tracer, args, result):
    """Useful work of one insert_and_select call: of the rows it inserted,
    how many are still in the bank when it returns (records carry their
    arrival step), and how full the bank is then."""
    bank, features = args[0], args[1]
    rows = np.shape(features)[0]
    newest = bank._next_step
    records = [r for bucket in bank.supports.values() for r in bucket]
    tracer.count("memory.insert_kept", sum(r.step >= newest - rows for r in records))
    tracer.count("memory.bank_occupancy",
                 len(records) / (bank.num_classes * bank.capacity_per_class))


def _after_run_method(tracer, args, result):
    tracer.count("adapt.batches", len(result[1].cumulative))


_SPEC = {
    "numeric": ["as_matrix", "linear_forward", "linear_backward", "batchnorm_forward",
                "batchnorm_backward", "relu_forward", "relu_backward", "softmax_rows"],
    "model": [("encode", "MlpEncoder.encode", 1),
              ("encoder_backward", "MlpEncoder.backward"),
              ("logits", "LinearClassifier.logits"),
              ("classifier_backward", "LinearClassifier.backward"),
              ("update_running_stats", "MlpEncoder.update_running_stats"),
              ("classification_accuracy", "classification_accuracy", 2),
              "clone_for_adaptation", "save_checkpoint", "load_checkpoint"],
    "train": [("Adam.step", "Adam.step"), "cross_entropy_loss", "train_source_erm"],
    "losses": ["entropy_loss", "marginal_loss"],
    "memory": ["pseudo_label", ("insert_and_select", "insert_and_select", 1, _after_insert),
               "compute_prototypes", "refresh_classifier", "init_from_classifier"],
    "adapt": [("run_method", "run_method", None, _after_run_method)],
    "data": ["gen_synthetic_shift", "write_csv", "load_csv", "load_csv_domains"],
    "cli": ["main", "write_run_record"],
    "diagnostics": ["kernel_comparison_sweep", "empirical_ntk", "verify_bn_gradient"],
}


def targets() -> list[Target]:
    out = []
    for layer, entries in _SPEC.items():
        for entry in entries:
            if isinstance(entry, str):
                entry = (entry, entry)
            fn, qualname, rows_arg, after = (*entry, None, None)[:4]
            out.append(Target(f"{layer}.{fn}", f"marginadapt.{layer}", qualname, rows_arg, after))
    return out


def metric_units() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for t in targets():
        out.append((f"{t.name}.calls", "count", "lower"))
        if t.rows_arg is not None:
            out.append((f"{t.name}.rows", "count", "lower"))
        out.append((f"{t.name}.self_s", "s", "lower"))
    out += [
        ("memory.insert_kept_frac", "fraction", "higher"),
        ("memory.bank_occupancy", "fraction", "higher"),
        ("adapt.batches", "count", "higher"),
        ("trace_overhead", "ratio", "lower"),
    ]
    return out


def per_layer_metrics(tracer: Tracer, ops: int, overhead: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}, per traced operation."""
    self_s = tracer.self_seconds()
    index = {name: i for i, name in enumerate(tracer.names)}
    rows_inserted = tracer.rows[index["memory.insert_and_select"]]
    inserts = tracer.calls[index["memory.insert_and_select"]]
    derived = {
        # base: memory.insert_and_select.rows; 0 when nothing was inserted
        "memory.insert_kept_frac": tracer.counters.get("memory.insert_kept", 0.0)
        / rows_inserted if rows_inserted else 0.0,
        "memory.bank_occupancy": tracer.counters.get("memory.bank_occupancy", 0.0)
        / inserts if inserts else 0.0,
        "adapt.batches": tracer.counters.get("adapt.batches", 0.0) / ops,
        "trace_overhead": overhead,
    }
    out = {}
    for name, unit, _ in metric_units():
        base, _, kind = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif kind == "calls":
            value = tracer.calls[index[base]] / ops
        elif kind == "rows":
            value = tracer.rows[index[base]] / ops
        else:
            value = self_s[index[base]] / ops
        out[name] = (float(value), unit)
    return out
