"""Spans and counts around calls into quenchwork's public functions.

The tracer wraps every public function and public method of the package's
modules from outside, without editing them.  A module often calls another
module's function through a name it imported (``cli`` imports
``write_ensemble`` and ``temperature_from_pair`` by name, ``lattice`` calls
its own ``spectrum`` through its globals), so each wrapper is installed in
every module namespace that binds the original object; otherwise inner calls
would escape the trace.

Spans are kept in memory as ``(name, start, end, parent, pass_id)`` tuples
and written out when the run ends.  A span's self time is its duration minus
the part of its interval covered by its child spans.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("ensembles", "distributions", "oscillator", "lattice", "jarzynski", "cli")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("lattice.evolve_center_of_mass.s", "s"),
    ("lattice.evolve_center_of_mass.calls", "count"),
    ("lattice.evolve_center_of_mass.samples", "count"),
    ("lattice.time_average_distribution.s", "s"),
    ("lattice.spectrum.s", "s"),
    ("lattice.spectrum.calls", "count"),
    ("lattice.diagonal_ensemble.s", "s"),
    ("lattice.diagonal_ensemble.calls", "count"),
    ("lattice.diagonal_ensemble.states", "count"),
    ("lattice.diagonal_ensemble.discarded_mass_max", "prob"),
    ("lattice.diagonal_ensemble.useful_ratio", "ratio"),
    ("lattice.warnings", "count"),
    ("lattice.self_s", "s"),
    ("distributions.sample.s", "s"),
    ("distributions.sample.draws", "count"),
    ("distributions.sample.useful_ratio", "ratio"),
    ("distributions.from_histogram.s", "s"),
    ("distributions.self_s", "s"),
    ("jarzynski.profile_from_distributions.self_s", "s"),
    ("jarzynski.sample_work_paths.calls", "count"),
    ("jarzynski.sample_work_paths.s", "s"),
    ("jarzynski.free_energy_estimate.s", "s"),
    ("jarzynski.jackknife_error.s", "s"),
    ("jarzynski.effective_sample_size.s", "s"),
    ("jarzynski.self_s", "s"),
    ("oscillator.position_distribution.s", "s"),
    ("oscillator.equilibrium_comparison.s", "s"),
    ("oscillator.self_s", "s"),
    ("ensembles.temperature_from_pair.s", "s"),
    ("ensembles.write_ensemble.s", "s"),
    ("ensembles.write_ensemble.bytes", "B"),
    ("ensembles.self_s", "s"),
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.files_written", "count"),
    ("trace.run_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's
    intervals clipped to its own."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for j in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _useful_states(ens, prob_cutoff: float) -> int:
    """Fewest states, largest first, whose raw probability reaches the
    enumeration target 1 - prob_cutoff (all of them when it was not reached)."""
    import numpy as np

    raw = np.sort(ens.probs)[::-1] * (1.0 - ens.discarded_mass)
    hit = np.nonzero(np.cumsum(raw) >= 1.0 - prob_cutoff)[0]
    return int(hit[0]) + 1 if hit.size else ens.size


def _tree_bytes(path: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size



def _count_evolve(tracer, bound, result):
    tracer.counts["lattice.evolve_center_of_mass.samples"] += result.values.size


def _count_ensemble(tracer, bound, result):
    tracer.counts["lattice.diagonal_ensemble.states"] += result.size
    key = "lattice.diagonal_ensemble.discarded_mass_max"
    tracer.counts[key] = max(tracer.counts[key], result.discarded_mass)
    tracer.ensembles.append((result, bound.arguments["prob_cutoff"]))


def _count_draws(tracer, bound, result):
    tracer.counts["distributions.sample.draws"] += bound.arguments["size"]


def _count_ensemble_bytes(tracer, bound, result):
    tracer.counts["ensembles.write_ensemble.bytes"] += os.path.getsize(bound.arguments["path"])


# per-call counts, taken after the span closes; each is O(1)
_COUNT_HOOKS = {
    "lattice.evolve_center_of_mass": _count_evolve,
    "lattice.diagonal_ensemble": _count_ensemble,
    "distributions.sample": _count_draws,
    "ensembles.write_ensemble": _count_ensemble_bytes,
}


class Tracer:
    """Records the spans and counts of one pass.

    ``install`` patches the package; ``finish`` takes the counts that need
    work after the pass.
    """

    def __init__(self, pass_id: str = ""):
        self.pass_id = pass_id
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[tuple[int, str]] = []
        self.ensembles: list = []  # (DiagonalEnsemble, prob_cutoff) per call
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        hook = _COUNT_HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1][0] if self._open else None
            self._open.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                self.spans[idx] = Span(name, start, end, parent, self.pass_id)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound, result)
            return result

        return traced

    def showwarning(self, message, category, filename, lineno, file=None, line=None):
        """``warnings.showwarning`` replacement: counts each warning against
        the layer of the innermost open span."""
        layer = self._open[-1][1].split(".", 1)[0] if self._open else "unattributed"
        self.counts[f"{layer}.warnings"] += 1

    def install(self) -> None:
        """Wrap every public function and method of the package's modules,
        in every module namespace that binds it."""
        import importlib

        modules = [importlib.import_module(f"quenchwork.{m}") for m in LAYERS]
        namespaces = [sys.modules["quenchwork"], *modules]
        names: set[str] = set()
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(self._wrap_once(names, f"{layer}.{meth}", raw.__func__))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap_once(names, f"{layer}.{meth}", raw)
                        else:
                            continue
                        self._restore.append((obj, meth, raw))
                        setattr(obj, meth, wrapped)
                elif callable(obj):
                    wrapped = self._wrap_once(names, f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._restore.append((ns, key, val))
                                setattr(ns, key, wrapped)

    def _wrap_once(self, names: set[str], name: str, fn):
        if name in names:
            raise RuntimeError(f"two traced callables share the name {name}")
        names.add(name)
        return self.wrap(name, fn)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def finish(self, out_dir: str) -> dict:
        """Counts taken after the pass: ensemble usefulness and the files
        the pass wrote under ``out_dir``."""
        self.counts["lattice.diagonal_ensemble.useful_states"] = sum(
            _useful_states(ens, cutoff) for ens, cutoff in self.ensembles
        )
        files, size = _tree_bytes(out_dir)
        self.counts["cli.files_written"] = files
        self.counts["cli.bytes_written"] = size
        return dict(self.counts)


def layer_metrics(spans, counts: dict, needed_draws: int) -> dict[str, float]:
    """Per-layer metrics of one pass, except the ``trace.*`` ones, which
    compare passes."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        busy[span.name] += span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += own
        self_s[span.name.split(".", 1)[0]] += own
    draws = counts.get("distributions.sample.draws", 0)
    states = counts.get("lattice.diagonal_ensemble.states", 0)
    ratios = {
        "distributions.sample.useful_ratio": needed_draws / draws if draws else 0.0,
        "lattice.diagonal_ensemble.useful_ratio": (
            counts.get("lattice.diagonal_ensemble.useful_states", 0) / states if states else 0.0
        ),
    }
    out = {}
    for name, _ in LAYER_METRICS:
        head, _, tail = name.rpartition(".")
        if name.startswith("trace."):
            continue
        if name in ratios:
            out[name] = ratios[name]
        elif tail == "s":
            out[name] = busy[head]
        elif tail == "calls":
            out[name] = calls[head]
        elif tail == "self_s":
            out[name] = self_s[head]
        else:
            out[name] = counts.get(name, 0)
    return out

