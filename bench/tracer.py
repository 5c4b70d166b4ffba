"""Span tracing from outside the program.

The tracer replaces public module attributes of opcover (and two numpy
eigensolvers) with thin wrappers that time each call and remember the
innermost traced call it ran under.  Self time is a span's duration
minus the time of its traced children.  Nothing inside the program
changes: the originals are put back when the ``installed`` block ends,
and traced runs must reproduce untraced ``results`` byte for byte.

Everything is aggregated per (span, parent span) in memory; the closed
loop runs one op at a time in one thread, so a plain stack suffices.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

from opcover import channels, cli, concentration, covering, identification, linalg, rng

# (owner module, attribute, span name).  A function imported by name
# into other opcover modules is patched there too, so every call site
# is seen.  eigh and eigvalsh share one span name.
TARGETS = (
    (cli, "run", "cli.run"),
    (cli, "validate_config", "cli.validate_config"),
    (linalg, "psd_leq", "linalg.psd_leq"),
    (linalg, "trace_distance", "linalg.trace_distance"),
    (np.linalg, "eigh", "numpy.eig"),
    (np.linalg, "eigvalsh", "numpy.eig"),
    (concentration, "exact_tail", "concentration.exact_tail"),
    (concentration, "mc_tail", "concentration.mc_tail"),
    (covering, "covering_capacity", "covering.covering_capacity"),
    (covering, "covering_number_bruteforce", "covering.covering_number_bruteforce"),
    (covering, "generalized_covering_number", "covering.generalized_covering_number"),
    (covering, "quantum_covering_sample", "covering.quantum_covering_sample"),
    (covering, "linprog", "covering.linprog"),
    (channels, "capacity", "channels.capacity"),
    (channels, "typical_projector", "channels.typical_projector"),
    (channels, "conditional_typical_projector", "channels.conditional_typical_projector"),
    (identification, "resolvability_regularize", "identification.resolvability_regularize"),
    (identification, "evaluate_qid_code", "identification.evaluate_qid_code"),
    (rng, "make_rng", "rng.make_rng"),
)


def _projector_bytes(tp) -> int:
    return tp.dim * tp.dim * 16  # one dense complex128 D x D projector


# Counters read off return values: span name -> (counter, value of result).
RETURN_COUNTERS = {
    "covering.covering_capacity": ("covering.capacity_iterations", lambda r: r.iterations),
    "covering.quantum_covering_sample": ("covering.sample_successes", lambda r: 1),
    "channels.capacity": ("channels.capacity_rounds", lambda r: r.iterations),
    "channels.typical_projector": ("channels.projector_bytes", _projector_bytes),
    "channels.conditional_typical_projector": ("channels.projector_bytes", _projector_bytes),
    "identification.resolvability_regularize": (
        "identification.escalation_stages", lambda r: r.details["stages_used"]
    ),
}


class Tracer:
    """Per-(span, parent) call counts, total and self seconds, plus counters."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []

    def _wrap(self, name: str, fn):
        counter = RETURN_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]  # child seconds accumulate in frame[1]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                row = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if counter is not None:
                key, read = counter
                self.counters[key] = self.counters.get(key, 0) + read(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        patched = []  # (module, attribute, original)
        wrappers = {}
        try:
            for owner, attr, name in TARGETS:
                original = getattr(owner, attr)
                wrapper = wrappers.setdefault(id(original), self._wrap(name, original))
                for module in _holders(owner, original):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    # -- aggregation ------------------------------------------------------

    def calls(self, name: str, under: str | None = None) -> int:
        """Calls of a span, optionally only those whose parent is `under`."""
        return sum(r[0] for (n, p), r in self.spans.items()
                   if n == name and (under is None or p == under))

    def self_seconds(self, name: str) -> float:
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)

    def table(self) -> list[dict]:
        return [
            {"span": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2]}
            for (n, p), r in sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        ]


def _holders(owner, original):
    """The owner module plus every opcover module holding the same object."""
    mods = [owner]
    for name, module in sorted(sys.modules.items()):
        if (name == "opcover" or name.startswith("opcover.")) and module is not owner:
            if any(v is original for v in vars(module).values()):
                mods.append(module)
    return mods


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics as {name: (value, unit)} over `ops` traced ops."""
    per_op = 1.0 / ops
    c = tracer.counters
    attempts = tracer.calls("rng.make_rng", under="covering.quantum_covering_sample")
    out = {}
    for name in (
        "cli.validate_config", "cli.run", "linalg.psd_leq", "numpy.eig",
        "linalg.trace_distance", "concentration.exact_tail", "concentration.mc_tail",
        "covering.covering_capacity", "covering.covering_number_bruteforce",
        "covering.generalized_covering_number", "covering.quantum_covering_sample",
        "channels.capacity", "channels.typical_projector",
        "channels.conditional_typical_projector",
        "identification.resolvability_regularize", "identification.evaluate_qid_code",
    ):
        out[f"{name}.self_s"] = (tracer.self_seconds(name) * per_op, "s/op")
    for name in ("linalg.psd_leq", "numpy.eig", "rng.make_rng"):
        out[f"{name}.calls"] = (tracer.calls(name) * per_op, "count/op")
    out["concentration.exact_tail.events"] = (
        tracer.calls("linalg.psd_leq", under="concentration.exact_tail") * per_op, "count/op")
    out["covering.bruteforce.multisets"] = (
        tracer.calls("linalg.psd_leq", under="covering.covering_number_bruteforce") * per_op,
        "count/op")
    out["covering.lp_rounds"] = (tracer.calls("covering.linprog") * per_op, "count/op")
    out["covering.sample_attempts"] = (attempts * per_op, "count/op")
    out["covering.sample_useful_ratio"] = (
        c.get("covering.sample_successes", 0) / attempts if attempts else 0.0, "ratio")
    for key in ("covering.capacity_iterations", "channels.capacity_rounds",
                "identification.escalation_stages"):
        out[key] = (c.get(key, 0) * per_op, "count/op")
    out["channels.projector_bytes"] = (c.get("channels.projector_bytes", 0) * per_op, "B/op")
    return out
