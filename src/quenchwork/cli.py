"""Reproducible experiment runner.

Takes a JSON run configuration (or a named preset), checks the config itself
(``validate``), orchestrates the model and estimator modules (``run``, which
rejects what the model cannot build before it writes a file), and emits
deterministic CSV data files plus a JSON manifest.  Exit codes: 0 success, 2
validation failure (either check), 3 convergence failure; failures print a
machine-readable JSON error to stdout.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import distributions, jarzynski, lattice, oscillator
from .distributions import MIN_HISTOGRAM_BINS, QuenchProtocol, histogram_span
from .ensembles import finite_real, temperature_from_pair, write_csv, write_ensemble
from .lattice import DegenerateFermiLevelError, EnsembleConvergenceError, LatticeParams
from .oscillator import OscillatorParams

REQUIRED = object()  # default of a field the kinds needing its section must set


class Field(NamedTuple):
    """A row of FIELDS.  ``default`` stands in for a value left out or null
    (a callable one is computed from the section, None where a field it
    reads is no number); ``type`` is int, float or str (a file name inside
    ``out_dir``); ``bound`` is an int's least value or closed range, or a
    float's (open lower, closed upper) range, None for any float."""

    default: object
    type: type
    bound: int | tuple[float, float] | None = None


# Every config field but the model's, which the dataclasses in _MODELS describe.
FIELDS: dict[str | None, dict[str, Field]] = {
    # above 1/max float, so that beta = 1/temperature stays finite
    None: {"temperature": Field(REQUIRED, float, (1.0 / sys.float_info.max, math.inf))},
    "protocol": {
        "lambda_start": Field(REQUIRED, float),
        "step": Field(REQUIRED, float),
        "stations": Field(REQUIRED, int, (2, distributions.MAX_STATIONS)),
    },
    "sampler": {
        "n_paths": Field(100000, int, (1, jarzynski.MAX_PATHS)),
        "seed": Field(REQUIRED, int, 0),
    },
    "evolution": {
        "tau": Field(None, float),  # None: evolve_center_of_mass's default horizon
        "dt": Field(0.1, float, (0.0, math.inf)),
        "bins": Field(40, int, (MIN_HISTOGRAM_BINS, distributions.MAX_HISTOGRAM_BINS)),
        "featured_lambda": Field(None, float),
    },
    "sweep": {
        "y_min": Field(REQUIRED, float, (0.0, oscillator.MAX_POISSON_MEAN)),
        "y_max": Field(REQUIRED, float, (0.0, oscillator.MAX_POISSON_MEAN)),
        # a point near y = 1e6 takes 10 to 20 ms on a 2-core Xeon: about a minute at most
        "points": Field(REQUIRED, int, (2, 4096)),
    },
    "quench": {
        "lambda": Field(15.0, float),
        "dlam": Field(REQUIRED, float, (0.0, math.inf)),
        "eps": Field(lambda q: 0.1 * q["dlam"] if finite_real(q.get("dlam")) else None, float),
    },
    "tolerances": {
        "tail_tol": Field(1e-12, float, (0.0, oscillator.MAX_TAIL_TOL)),
        "prob_cutoff": Field(1e-8, float, (0.0, lattice.MAX_PROB_CUTOFF)),
        "max_states": Field(50000, int, 1),  # states the excitation search visits, kept or not
    },
    "filenames": {
        "sweep": Field("sweep.csv", str),
        "profile": Field("profile.csv", str),
        "featured_histogram": Field("featured_hist.csv", str),
        "work_histogram": Field("work_hist.csv", str),
        "temperature": Field("temperature.csv", str),
    },
}

# the names a run gives its other files
_RUN_NAMES = re.compile(r"manifest\.json|ensemble_[ab]\.csv|(dist|hist|series)_station_\d{2,}\.csv")

_MODELS = {"oscillator": OscillatorParams, "lattice": LatticeParams}

PRESETS: dict[str, dict] = {
    "fig2": {
        "kind": "oscillator-sweep",
        "model": {"type": "oscillator"},
        "sweep": {"y_min": 0.01, "y_max": 10.0, "points": 121},
        "filenames": {"sweep": "fig2.csv"},
    },
    "fig3b": {
        "kind": "oscillator-je",
        "model": {"type": "oscillator"},
        "protocol": {"lambda_start": 0.0, "step": 0.6935, "stations": 11},
        "temperature": 0.35,
        "sampler": {"n_paths": 100000, "seed": 11},
        "filenames": {"profile": "fig3b.csv"},
    },
    "fig3d": {
        "kind": "oscillator-je",
        "model": {"type": "oscillator"},
        "protocol": {"lambda_start": 0.0, "step": 4.0, "stations": 11},
        "temperature": 3.52,
        "sampler": {"n_paths": 100000, "seed": 13},
        "filenames": {"profile": "fig3d.csv"},
    },
    "fig4": {
        "kind": "lattice-je",
        "model": {"type": "lattice"},
        "protocol": {"lambda_start": 13.0, "step": 1.0, "stations": 8},
        "temperature": 0.1953,
        "sampler": {"n_paths": 100000, "seed": 17},
        "evolution": {"tau": None, "dt": 0.1, "bins": 40, "featured_lambda": 14.0},
        "filenames": {"profile": "fig4d.csv", "featured_histogram": "fig4c.csv"},
    },
    "lattice-temperature": {
        "kind": "temperature",
        "model": {"type": "lattice"},
        "quench": {"lambda": 15.0, "dlam": 1.0, "eps": None},
    },
}


@dataclass
class RunConfig:
    """Normalized run configuration; sections keep their JSON shape."""

    kind: str
    model: dict
    protocol: dict = field(default_factory=dict)
    temperature: float | None = None
    sampler: dict = field(default_factory=dict)
    evolution: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    quench: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    filenames: dict = field(default_factory=dict)
    out_dir: str = "out"
    quiet: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        d = copy.deepcopy(raw)
        kind = d.get("kind", "")
        model = dict(d.get("model", {}))
        mtype = model.pop("type", None) or (kind in KINDS and KINDS[kind].model) or "oscillator"
        params_cls = _MODELS.get(mtype)
        merged = {f.name: f.default for f in dataclasses.fields(params_cls)} if params_cls else {}
        merged.update(model)
        merged["type"] = mtype
        sections = {name: _with_defaults(name, d.get(name, {})) for name in FIELDS if name}
        return cls(
            kind=kind, model=merged, temperature=d.get("temperature"), **sections,
            out_dir=d.get("out_dir", "out"), quiet=d.get("quiet", False),
        )

    @property
    def settings(self) -> dict:  # the keywords of the model's station and temperature_quench
        return {**self.tolerances, **self.evolution}

    def config_hash(self) -> str:
        """Hash of the kind, the model and the sections the kind reads, defaults
        filled in: neither a default written out nor an unread section moves it."""
        keys = (k for s in KINDS[self.kind].sections for k in (FIELDS[None] if s is None else (s,)))
        semantic = {key: getattr(self, key) for key in ("kind", "model", *keys)}
        canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _model_params(config: RunConfig):
    return _MODELS[config.model["type"]](**{k: v for k, v in config.model.items() if k != "type"})


def _with_defaults(section: str, values: dict) -> dict:
    """``values`` with each field of ``section`` it leaves out or null at its
    default; fields without a default stay as they are."""
    out = dict(values)
    for key, spec in FIELDS[section].items():
        if out.get(key) is None and spec.default is not REQUIRED:
            out[key] = spec.default(out) if callable(spec.default) else spec.default
    return out


def _unmet(spec: Field, value) -> str | None:
    """What ``value`` must be to fit the type and bound of ``spec``, or None
    if it fits."""
    if spec.type is str:
        fits = (isinstance(value, str) and value not in ("", ".", "..") and "\0" not in value
                and Path(value).name == value)
        return None if fits else "a file name without a directory part or NUL character"
    if spec.type is int:
        low, high = spec.bound if isinstance(spec.bound, tuple) else (spec.bound, math.inf)
        fits = finite_real(value) and isinstance(value, int) and low <= value <= high
        return None if fits else f"an integer of at least {low}" + (
            f" and at most {high}" if high < math.inf else ""
        )
    low, high = spec.bound or (-math.inf, math.inf)
    if finite_real(value) and low < value <= high:
        return None
    above = f" above {low:g}" if low > -math.inf else ""
    return f"a number{above}" + (f" and at most {high:g}" if high < math.inf else "")


def _field_violations(config: RunConfig) -> list[str]:
    """Keys with no row in FIELDS, values that do not fit their row, and
    required fields left unset in the sections the kind reads."""
    violations = []
    for section, specs in FIELDS.items():
        values = getattr(config, section) if section else {k: getattr(config, k) for k in specs}
        for key in {**specs, **values}:
            name = f"{section}.{key}" if section else key
            spec, value = specs.get(key), values.get(key)
            if spec is None:
                violations.append(f"{name}: unknown field")
            elif value is not None and (unmet := _unmet(spec, value)):
                violations.append(f"{name}: must be {unmet}")
            elif value is None and spec.default is REQUIRED and section in KINDS[config.kind].sections:
                violations.append(f"{name}: required, {_unmet(spec, None)}")
    return violations


def _shape_violations(raw) -> list[str]:
    """Checks a raw config must pass before ``RunConfig.from_dict`` can read it."""
    if not isinstance(raw, dict):
        return ["config: must be a JSON object"]
    sections = ["model", *filter(None, FIELDS)]
    violations = [
        f"{key}: must be an object" for key in sections
        if key in raw and not isinstance(raw[key], dict)
    ]
    violations.extend(
        f"{key}: must be a string" for key in ("kind", "out_dir")
        if key in raw and not isinstance(raw[key], str)
    )
    violations.extend(
        f"{key}: unknown field" for key in raw
        if key not in (*sections, *FIELDS[None], "kind", "out_dir", "quiet")
    )
    model = raw.get("model")
    mtype = model.get("type") if isinstance(model, dict) else None
    if mtype is not None and not isinstance(mtype, str):
        violations.append("model.type: must be a string")
    return violations


def validate(config: RunConfig) -> list[str]:
    """The checks that read the config itself; an empty list means the run
    starts, and the run judges the model's limits (``run``).  Each field is checked
    against its row in FIELDS; the checks that join fields run once all pass."""
    if config.kind not in KINDS:
        return [f"kind: '{config.kind}' is not one of {tuple(KINDS)}"]
    kind, mtype = KINDS[config.kind], config.model["type"]
    if mtype not in _MODELS or kind.model not in (None, mtype):
        return [f"model.type: '{mtype}' cannot run kind '{config.kind}'"]
    violations = _field_violations(config)
    if "\0" in str(config.out_dir):
        violations.append("out_dir: must hold no NUL character")
    if not isinstance(config.quiet, bool):
        violations.append("quiet: must be true or false")
    try:
        params = _model_params(config)
    except (TypeError, ValueError) as exc:
        violations.insert(0, f"model: {exc}")
    if violations:
        return violations
    if "sweep" in kind.sections and config.sweep["y_min"] >= config.sweep["y_max"]:
        violations.append("sweep: need y_min < y_max")
    if kind.model == "lattice":
        try:
            lattice.series_samples(params.n_sites, config.evolution["tau"], config.evolution["dt"])
        except ValueError as exc:
            violations.append(f"evolution.{exc}")
    featured = config.evolution["featured_lambda"]
    if "featured_histogram" in kind.outputs and featured is not None:
        if not any(math.isclose(featured, lam) for _, lam, _, _ in _quenches(config)):
            violations.append(f"evolution.featured_lambda: {featured:g} has no station distribution")
    keys = [k for k in kind.outputs if featured is not None or k != "featured_histogram"]
    names = [config.filenames[key] for key in keys]
    violations.extend(
        f"filenames.{key}: '{name}' is the name of another file the run writes"
        for key, name in zip(keys, names) if names.count(name) > 1 or _RUN_NAMES.fullmatch(name)
    )
    return violations


def _quenches(config: RunConfig) -> list[tuple[str, float, str, float]]:
    """(lambda field, lambda, dlambda field, dlambda) of each quench (lambda -
    dlambda) -> lambda the run makes; a profile run makes one per station with a
    distribution, at lambda_start + i step for i < s - 1, a lambda of the step's past i = 0."""
    if "quench" in KINDS[config.kind].sections:
        q = config.quench
        return [("quench.lambda", q["lambda"], "quench.dlam", q["dlam"]),
                ("quench.lambda", q["lambda"], "quench.eps", q["dlam"] + q["eps"])]
    proto = QuenchProtocol(**config.protocol)
    return [("protocol.step" if i else "protocol.lambda_start", lam, "protocol.step", proto.step)
            for i, lam in enumerate(proto.lambdas[:-1])]


class Rejected(Exception):
    """A config whose model calls fail; ``args[0]`` lists its violations."""


def _build_each(quenches: list, build) -> list:
    """``build(i, lambda, dlambda)`` of every quench i of ``quenches``, rows of
    ``_quenches``.  Rejected names each field at fault once, with its first failure:
    a degenerate Fermi level under ``model``, a ValueError led by ``lam:`` under the
    quench's lambda field (the first quench's, once that has failed), by ``dlam:`` or
    ``y:`` under its dlambda field.  Anything else is a bug and propagates."""
    built, violations = [], {}
    for i, (lam_key, lam, dlam_key, dlam) in enumerate(quenches):
        try:
            built.append(build(i, lam, dlam))
        except DegenerateFermiLevelError as exc:
            violations.setdefault("model", str(exc))
        except ValueError as exc:
            prefix, _, detail = str(exc).partition(": ")
            if prefix not in ("lam", "dlam", "y"):
                raise
            if prefix == "lam" and quenches[0][0] in violations:
                lam_key = quenches[0][0]
            violations.setdefault(lam_key if prefix == "lam" else dlam_key, detail)
    if violations:
        raise Rejected([f"{key}: {detail}" for key, detail in violations.items()])
    return built


def _run_oscillator_sweep(config: RunConfig, params: OscillatorParams, path) -> dict:
    ys = np.geomspace(config.sweep["y_min"], config.sweep["y_max"], config.sweep["points"])
    columns = oscillator.equilibrium_comparison(params, ys).T
    write_csv(path(config.filenames["sweep"]), ["y,T,T_B,S,S_B"], columns)
    return {}


def _run_lattice_run(config: RunConfig, params: LatticeParams, path) -> dict:
    quenches = _quenches(config)
    # every quench's spectra and ground state, before the first file
    _build_each(quenches, lambda _, *q: lattice.quench_energy(params, *q))
    edges = []
    for i, (_, lam, _, dlam) in enumerate(quenches, start=1):
        series = lattice.evolve_center_of_mass(
            params, lam, dlam, tau=config.evolution["tau"], dt=config.evolution["dt"]
        )
        edges.append(series.edge_occupancy)
        write_csv(path(f"series_station_{i:02d}.csv"), ["t,x"], (series.times, series.values))
        dist = lattice.time_average_distribution(series, bins=config.evolution["bins"])
        write_csv(path(f"hist_station_{i:02d}.csv"), ["x,f"], (dist.x, dist.density))
    return {"edge_occupancy": edges}


def _run_je(config: RunConfig, params: LatticeParams | OscillatorParams, path) -> dict:
    sampler = config.sampler
    # what can fail of every station, then the stations, then the paths
    stations = _build_each(_quenches(config), lambda _, *q: params.station(*q, **config.settings))
    dists = [make() for make in stations]
    profile = jarzynski.profile_from_distributions(
        dists, QuenchProtocol(**config.protocol).lambdas, *params.traps,
        1.0 / config.temperature, sampler["n_paths"], sampler["seed"])
    write_csv(
        path(config.filenames["profile"]), ["lambda,dF_JE,dF_target,work_std,jackknife,ESS"],
        (profile.lambdas, profile.delta_f, profile.targets, profile.work_std,
         profile.jackknife, profile.ess),
    )
    featured = config.evolution["featured_lambda"]
    for i, (lam, dist) in enumerate(zip(profile.lambdas, dists), start=1):
        write_csv(path(f"{params.station_prefix}_station_{i:02d}.csv"), ["x,f"], (dist.x, dist.density))
        if featured is not None and math.isclose(lam, featured):
            write_csv(path(config.filenames["featured_histogram"]), ["x,f"], (dist.x, dist.density))
            featured = None  # the first station that matches, as validate reads it
    work = profile.final_work
    lo, hi = work.min(), work.max()
    # np.histogram's own range (lo, hi), opened only where it is too narrow for 60 bins
    span = histogram_span(lo, hi)
    limits = (lo, hi if span == hi - lo else lo + span)
    # counted in slices of 2^14 paths, so that np.histogram's temporaries stay
    # small; a value's bin depends only on it and the range, so the summed
    # counts are those of the whole sample
    counts, block = 0, 1 << 14
    for start in range(0, work.size, block):
        part, edges = np.histogram(work[start:start + block], bins=60, range=limits)
        counts += part
    centers = 0.5 * (edges[:-1] + edges[1:])
    write_csv(path(config.filenames["work_histogram"]), ["W,count"], (centers, counts))
    return {"seed": sampler["seed"], "n_paths": sampler["n_paths"],
            "temperature": config.temperature, "min_ess": float(profile.ess.min())}


def _run_temperature(config: RunConfig, params: LatticeParams | OscillatorParams, path) -> dict:
    quenches = _quenches(config)
    # what can fail of both quenches, and the first's extra columns, before the repeat check
    (key_a, ens_a, columns), (key_b, ens_b, _) = _build_each(quenches, lambda i, lam, dlam: (
        *params.temperature_quench(lam, dlam, **config.settings),
        None if i else params.temperature_columns(lam, dlam)))
    if key_a == key_b:  # the second ensemble would repeat the first
        raise Rejected([f"quench.eps: dlam + eps repeats the first quench's "
                        f"{params.quench_key} {key_a:g}"])
    ensembles = [ens_a(), ens_b()]
    for tag, ens, (_, lam, _, dlam) in zip("ab", ensembles, quenches):
        write_ensemble(ens, path(f"ensemble_{tag}.csv"), lam=lam, dlam=dlam)
    est = temperature_from_pair(*ensembles)
    q = config.quench
    row = {"lambda": q["lambda"], "dlam": q["dlam"], "eps": q["eps"], "dS": est.dS,
           "dE": est.dE, "beta": est.beta, "T": est.temperature, **columns}
    write_csv(path(config.filenames["temperature"]), [",".join(row)], [[v] for v in row.values()])
    return {"temperature_estimate": est.temperature,
            "captured_deficit": [ens.discarded_mass for ens in ensembles],
            **params.temperature_fields([key_a, key_b], ensembles)}


class Kind(NamedTuple):
    """A row of KINDS: the model type the kind runs (None: either), the sections
    its run reads (None holds the top-level ones; ``filenames`` is left out),
    the ``filenames`` keys it writes (featured_histogram only with a
    featured_lambda) and its runner, ``run(config, params, path)``."""

    model: str | None
    sections: tuple[str | None, ...]
    outputs: tuple[str, ...]
    run: Callable[..., dict]


_JE_OUTPUTS = ("profile", "work_histogram", "featured_histogram")
KINDS = {
    "oscillator-sweep": Kind("oscillator", ("sweep",), ("sweep",), _run_oscillator_sweep),
    "oscillator-je": Kind("oscillator", (None, "protocol", "sampler", "tolerances", "evolution"),
                          _JE_OUTPUTS, _run_je),
    "lattice-run": Kind("lattice", ("protocol", "evolution"), (), _run_lattice_run),
    "lattice-je": Kind("lattice", (None, "protocol", "sampler", "evolution"), _JE_OUTPUTS, _run_je),
    "temperature": Kind(None, ("quench", "tolerances"), ("temperature",), _run_temperature),
}


@contextlib.contextmanager
def _recording_warnings():
    """Yield a list that gets a {"category", "message"} entry for every
    warning raised inside, in the order raised and whatever the caller's
    filters say; each warning is also handed on to the caller's filters and
    handler as it is raised."""
    log: list[dict] = []
    outer_filters, outer_show = warnings.filters[:], warnings.showwarning

    def record(message, category, filename, lineno, file=None, line=None):
        log.append({"category": category.__name__, "message": str(message)})
        with warnings.catch_warnings():
            warnings.filters[:] = outer_filters
            warnings.showwarning = outer_show
            warnings.warn_explicit(message, category, filename, lineno)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = record
        yield log


def run(config: RunConfig) -> dict:
    """Execute a validated configuration; returns the manifest dict.  Each runner
    writes its files to ``path(name)``, which lists them and makes ``out_dir``, and
    returns its manifest fields.  The run is the one judge of the model's limits: each
    runner builds every quench's model objects that can fail before its first file,
    and raises Rejected from ``_build_each``."""
    out = Path(config.out_dir)
    manifest: dict = {"kind": config.kind, "config_hash": config.config_hash()}
    files: list[str] = []

    def path(name: str) -> Path:
        out.mkdir(parents=True, exist_ok=True)
        files.append(name)
        return out / name

    params = _model_params(config)
    start = time.monotonic()
    with _recording_warnings() as caught:
        manifest.update(KINDS[config.kind].run(config, params, path))
    manifest["files"] = files
    manifest["warnings"] = caught
    manifest["wall_time_s"] = time.monotonic() - start
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def main(argv=None) -> int:
    import argparse  # here alone: run, validate and library callers parse no arguments

    parser = argparse.ArgumentParser(
        prog="quenchwork", description="Quench thermodynamics experiment runner")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", type=Path, help="JSON run configuration")
    group.add_argument("--preset", choices=sorted(PRESETS), help="named preset run")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, help="sampler seed; kinds that do not sample ignore it")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    raw, violations = None, []
    if args.preset:
        raw = copy.deepcopy(PRESETS[args.preset])
    else:
        try:
            raw = json.loads(args.config.read_text())
        except (OSError, ValueError) as exc:
            violations = [f"config: cannot read JSON: {exc}"]
    violations = violations or _shape_violations(raw)
    if not violations:
        if args.out is not None:
            raw["out_dir"] = str(args.out)
        kind = KINDS.get(raw.get("kind"))
        if args.seed is not None and kind and "sampler" in kind.sections:
            raw.setdefault("sampler", {})["seed"] = args.seed
        if args.quiet:
            raw["quiet"] = True
        config = RunConfig.from_dict(raw)
        violations = validate(config)
    try:
        manifest = None if violations else run(config)
    except Rejected as exc:
        violations = exc.args[0]
    except EnsembleConvergenceError as exc:
        print(json.dumps({"error": "convergence_failed", "detail": str(exc)}))
        return 3
    if violations:
        print(json.dumps({"error": "validation_failed", "violations": violations}))
        return 2
    if not config.quiet:
        print(json.dumps({"ok": True, "out_dir": config.out_dir, "files": manifest["files"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
