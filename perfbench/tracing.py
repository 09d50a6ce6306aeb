"""In-process runner for one CLI command, with or without tracing.

Usage: python3 perfbench/tracing.py SPEC.json OUT.json

SPEC holds ``src`` (the directory holding the ``permbreak`` package), ``cwd``,
``argv`` and ``trace``.  The command runs as ``permbreak.cli.main(argv)`` in
this process, one process per command as in real use, so nothing one command
leaves in memory helps the next.  With tracing on, the public functions the
command reaches are wrapped first, in the namespace each caller looks them up
in (``cipher`` imports ``build_schedule`` by name, ``cli`` imports ``attack``
by name, ...).  Every wrapped call records a span (name, start, end, parent);
spans stay in memory and are written to OUT when the command ends, together
with per-span-name totals, self times, call counts and counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (span name, module, attribute).  A dotted attribute is a method on a class.
PROBES = [
    ("pgm.read", "permbreak.cli", "read_pgm"),
    ("pgm.write", "permbreak.cli", "write_pgm"),
    ("keystream.orbit", "permbreak.keystream", "generate_sequence"),
    ("keystream.schedule", "permbreak.cipher", "build_schedule"),
    ("cipher.encrypt", "permbreak.cli", "encrypt"),
    ("cipher.decrypt", "permbreak.cli", "decrypt"),
    ("cipher.compose", "permbreak.cli", "compose_permutation"),
    ("cipher.compose", "permbreak.cipher", "compose_permutation"),
    ("cipher.bits", "permbreak.cipher", "expand_to_bits"),
    ("cipher.bits", "permbreak.cipher", "pack_to_image"),
    ("cipher.bits", "permbreak.recovery", "expand_to_bits"),
    ("cipher.bits", "permbreak.recovery", "pack_to_image"),
    ("cipher.bits", "permbreak.cli", "expand_to_bits"),
    ("cipher.bits", "permbreak.cli", "pack_to_image"),
    ("cipher.apply", "permbreak.cipher", "apply_map"),
    ("cipher.apply", "permbreak.cipher", "apply_inverse"),
    ("cipher.apply", "permbreak.cli", "apply_inverse"),
    ("cipher.map_save", "permbreak.cli", "save_permutation"),
    ("recovery.attack", "permbreak.cli", "attack"),
    ("recovery.refine", "permbreak.recovery", "RecoveryTree.refine"),
    ("recovery.estimate", "permbreak.recovery", "RecoveryTree.estimate_map"),
    ("analysis.score", "permbreak.cli", "compare_images"),
    ("analysis.score", "permbreak.cli", "perm_accuracy"),
]

# Spans each workload must record at least once; zero calls there means the
# probe no longer sees the code path, and its metrics are reported missing.
EXPECTED = {
    "chosen-break": {
        "pgm.read", "pgm.write", "keystream.orbit", "keystream.schedule", "cipher.encrypt",
        "cipher.decrypt", "cipher.bits", "cipher.map_save", "recovery.attack",
        "recovery.refine", "recovery.estimate",
    },
    "sweep": {
        "keystream.orbit", "keystream.schedule", "cipher.encrypt", "cipher.compose",
        "cipher.bits", "cipher.apply", "recovery.attack", "recovery.refine",
        "recovery.estimate", "analysis.score",
    },
    "byte-known": {
        "pgm.read", "cipher.map_save", "recovery.attack", "recovery.refine", "recovery.estimate",
    },
}

# Per-layer metric -> (the span it is measured from, how).  "total" and "own"
# sum the span's durations with and without its children, "calls" counts the
# spans, "count:c" reads counter c and "ratio:a/b" divides counter a by b.
# cli.import_s and trace.overhead_s are measured outside the traced process.
LAYER_METRICS = {
    "cli.self_s": ("cli.main", "own"),
    "pgm.read_s": ("pgm.read", "total"),
    "pgm.write_s": ("pgm.write", "total"),
    "pgm.bytes": ("pgm.read", "count:pgm.bytes"),
    "keystream.orbit_calls": ("keystream.orbit", "calls"),
    "keystream.orbit_samples": ("keystream.orbit", "count:orbit.samples"),
    "keystream.orbit_s": ("keystream.orbit", "total"),
    "keystream.orbit_reuse_ratio": ("keystream.orbit", "ratio:orbit.reused/orbit.samples"),
    "keystream.schedule_s": ("keystream.schedule", "own"),
    "cipher.encrypt_calls": ("cipher.encrypt", "calls"),
    "cipher.encrypt_s": ("cipher.encrypt", "own"),
    "cipher.decrypt_s": ("cipher.decrypt", "own"),
    "cipher.compose_s": ("cipher.compose", "own"),
    "cipher.bits_s": ("cipher.bits", "total"),
    "cipher.apply_s": ("cipher.apply", "total"),
    "cipher.map_save_s": ("cipher.map_save", "total"),
    "cipher.map_bytes": ("cipher.map_save", "count:map.bytes"),
    "recovery.refine_calls": ("recovery.refine", "calls"),
    "recovery.refine_s": ("recovery.refine", "total"),
    "recovery.estimate_s": ("recovery.estimate", "total"),
    "recovery.attack_self_s": ("recovery.attack", "own"),
    "recovery.positions_processed": ("recovery.attack", "count:attack.positions_processed"),
    "recovery.leaf_count": ("recovery.attack", "count:attack.leaf_count"),
    "recovery.pinned_ratio": ("recovery.attack", "ratio:attack.pinned/attack.positions_processed"),
    "recovery.pairs_rejected": ("recovery.attack", "count:recovery.attack raised InconsistentPair"),
    "analysis.score_s": ("analysis.score", "total"),
}


class Tracer:
    """Spans as (name, start, end, parent index) plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.orbits_seen: set = set()  # (x0, mu, length) generated so far in this process

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.count(f"{name} raised {type(exc).__name__}", 1)
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _observe_orbit(tracer, args, kwargs, result):
    key, length = args[0], (args[1] if len(args) > 1 else kwargs["length"])
    tracer.count("orbit.samples", length)
    seen = (key.x0, key.mu, length)
    if seen in tracer.orbits_seen:
        tracer.count("orbit.reused", length)
    tracer.orbits_seen.add(seen)


def _observe_path_bytes(counter, path_arg):
    def observe(tracer, args, kwargs, result):
        tracer.count(counter, os.path.getsize(args[path_arg]))

    return observe


def _observe_attack(tracer, args, kwargs, result):
    estimate, report = result
    tracer.count("attack.positions_processed", report.positions_processed)
    tracer.count("attack.leaf_count", report.leaf_count)
    tracer.count("attack.pinned", round(report.singleton_fraction * estimate.rows * estimate.cols))


OBSERVERS = {
    "keystream.orbit": _observe_orbit,
    "pgm.read": _observe_path_bytes("pgm.bytes", 0),
    "pgm.write": _observe_path_bytes("pgm.bytes", 0),
    "cipher.map_save": _observe_path_bytes("map.bytes", 1),
    "recovery.attack": _observe_attack,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every probe in place; return the probes whose target is missing."""
    missing = []
    for name, module_name, attr in PROBES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{name} ({module_name}.{attr})")
            continue
        setattr(owner, leaf, tracer.wrap(name, fn))
    return missing


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: total time, self time (minus direct children) and calls."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, float] = {}
    for name, start, end, parent in spans:
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            parent_name = spans[parent][0]
            own[parent_name] = own.get(parent_name, 0.0) - duration
    return {"total": total, "own": own, "calls": calls}


def merge(parts: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for part in parts:
        for kind, values in part.items():
            into = merged.setdefault(kind, {})
            for name, value in values.items():
                into[name] = into.get(name, 0) + value
    return merged


def layer_metrics(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics from merged ``aggregate`` output plus ``counts``."""
    counts = agg.get("counts", {})
    metrics = {}
    for metric, (span, how) in LAYER_METRICS.items():
        kind, _, arg = how.partition(":")
        if kind == "count":
            metrics[metric] = counts.get(arg, 0)
        elif kind == "ratio":
            num, den = (counts.get(c, 0) for c in arg.split("/"))
            metrics[metric] = num / den if den else 0.0
        else:
            metrics[metric] = agg.get(kind, {}).get(span, 0)
    return metrics


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import permbreak.cli

    os.chdir(spec["cwd"])
    if not spec["trace"]:
        start = time.perf_counter()
        code = permbreak.cli.main(spec["argv"])
        return {"code": code, "wall_s": time.perf_counter() - start}
    tracer = Tracer()
    missing = install(tracer)
    start = time.perf_counter()
    code = tracer.call("cli.main", permbreak.cli.main, spec["argv"])
    wall = time.perf_counter() - start
    agg = aggregate(tracer.spans)
    agg["counts"] = tracer.counts
    return {"code": code, "wall_s": wall, "missing": missing, "aggregate": agg, "spans": tracer.spans}


def main() -> int:
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
