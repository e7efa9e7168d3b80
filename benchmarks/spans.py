"""Span tracing installed from outside the bellbounds package.

The tracer wraps the public functions listed in SPANS and rebinds every
name in the ``bellbounds`` modules that refers to the original, so calls
made through ``from .linalg import expectation`` style imports are seen
too.  Nothing in ``src/`` is edited, and an untraced run installs nothing.

A span records its name, start, end, parent span and op id in flat arrays
kept in memory; ``save`` writes them out once the run is over.  Self time
is a span's duration minus the durations of its children: calls here are
synchronous on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  A dotted attribute is a method on a class.
SPANS = (
    ("bellbounds.cli", "run", "cli.run"),
    ("bellbounds.experiments", "verify_bounds_random", "experiments.verify_bounds_random"),
    ("bellbounds.experiments", "maximize_violation", "experiments.maximize_violation"),
    ("bellbounds.experiments", "nelder_mead", "experiments.nelder_mead"),
    ("bellbounds.bounds", "best_svetlichny_bound", "bounds.eta_scan"),
    ("bellbounds.bounds", "eta", "bounds.eta"),
    ("bellbounds.bounds", "best_mk_bound", "bounds.chi_scan"),
    ("bellbounds.bounds", "chi", "bounds.chi"),
    ("bellbounds.bounds", "covariance_inequality", "bounds.covariance_inequality"),
    ("bellbounds.polynomials", "svetlichny", "polynomials.build"),
    ("bellbounds.polynomials", "mk", "polynomials.build"),
    ("bellbounds.polynomials", "realize", "polynomials.realize"),
    ("bellbounds.observables", "MeasurementScenario.planar", "observables.scenario_build"),
    ("bellbounds.observables", "MeasurementScenario.bloch", "observables.scenario_build"),
    ("bellbounds.observables", "embed_local", "observables.embed_local"),
    ("bellbounds.observables", "validate_dichotomic", "observables.validate_dichotomic"),
    ("bellbounds.observables", "read_scenario_file", "observables.read_scenario_file"),
    ("bellbounds.linalg", "kron_chain", "linalg.kron_chain"),
    ("bellbounds.linalg", "expectation", "linalg.expectation"),
    ("bellbounds.linalg", "covariance_witness", "linalg.covariance_witness"),
    ("bellbounds.linalg", "jacobi_eigenvalues", "linalg.jacobi_eigenvalues"),
    ("bellbounds.linalg", "QuantumState.pure", "linalg.state_build"),
    ("bellbounds.linalg", "QuantumState.mixed", "linalg.state_build"),
    ("bellbounds.linalg", "read_state_file", "linalg.read_state_file"),
)

# Called thousands of times per trial: counted, not spanned.
COUNTS = (("bellbounds.rng", "SplitMix64.next_u64", "rng.next_u64"),)

# nelder_mead's objective runs as its own span so that the optimizer's
# self time is its bookkeeping alone.
OBJECTIVE_SPAN = "experiments.objective"


class Tracer:
    """In-memory span store; ``op_id`` tags the spans of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, func, name: str):
        """``func`` wrapped so that each call records one span called ``name``."""
        name_id = self._name_id(name)
        clock, stack = time.perf_counter, self._stack
        name_idx, parent, op = self.name_idx, self.parent, self.op
        start, end = self.start, self.end

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def counted(self, func, name: str):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def nelder_mead(self, func, name: str):
        """Span for the optimizer whose objective argument is spanned apart."""
        spanned = self.spanned(func, name)

        @functools.wraps(func)
        def wrapper(objective, *args, **kwargs):
            return spanned(self.spanned(objective, OBJECTIVE_SPAN), *args, **kwargs)

        return wrapper

    def calls(self) -> Counter:
        """Calls per span name, plus the counted-only names."""
        out = Counter(self.names[i] for i in self.name_idx)
        out.update(self.counts)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the spans it called."""
        totals = dict.fromkeys(self.names, 0.0)
        for i, (first, last, up) in enumerate(zip(self.start, self.end, self.parent)):
            duration = last - first
            totals[self.names[self.name_idx[i]]] += duration
            if up >= 0:
                totals[self.names[self.name_idx[up]]] -= duration
        return totals

    def root_time(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(
            last - first
            for first, last, up in zip(self.start, self.end, self.parent)
            if up < 0
        )

    def save(self, path, header: dict) -> None:
        """Write every span to a compressed .npz (one array per field)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            header=np.array(sorted(f"{k}={v}" for k, v in header.items())),
        )


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    package = [
        module
        for name, module in sys.modules.items()
        if name == "bellbounds" or name.startswith("bellbounds.")
    ]
    undo = []
    targets = [(m, a, n, tracer.spanned) for m, a, n in SPANS]
    targets += [(m, a, n, tracer.counted) for m, a, n in COUNTS]
    for module_name, attribute, name, wrap in targets:
        module = sys.modules[module_name]
        if attribute == "nelder_mead":
            wrap = tracer.nelder_mead
        if "." not in attribute:
            # a module-level function: rebind it wherever it was imported
            original = getattr(module, attribute)
            wrapped = wrap(original, name)
            for user in package:
                for key, value in list(vars(user).items()):
                    if value is original:
                        undo.append((user, key, value))
                        setattr(user, key, wrapped)
            continue
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            replacement = classmethod(wrap(raw.__func__, name))
        else:
            replacement = wrap(raw, name)
        undo.append((owner, method, raw))
        setattr(owner, method, replacement)

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore
