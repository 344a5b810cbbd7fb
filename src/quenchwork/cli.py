"""Reproducible experiment runner.

Takes a JSON run configuration (or a named preset), orchestrates the model
and estimator modules, and emits deterministic CSV data files plus a JSON
manifest.  Exit codes: 0 success, 2 validation failure, 3 convergence
failure; failures print a machine-readable JSON error to stdout.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jarzynski, lattice, oscillator
from .distributions import QuenchProtocol
from .ensembles import temperature_from_pair, write_ensemble
from .lattice import EnsembleConvergenceError, LatticeParams
from .oscillator import OscillatorParams

KINDS = ("oscillator-sweep", "oscillator-je", "lattice-run", "lattice-je", "temperature")
_SAMPLING_KINDS = ("oscillator-je", "lattice-je")
_SECTIONS = (
    "model", "protocol", "sampler", "evolution", "sweep", "quench", "tolerances", "filenames"
)

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
    protocol: dict | None = None
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
        mtype = model.pop("type", None) or (
            "lattice" if kind.startswith("lattice") else "oscillator"
        )
        params_cls = _MODELS.get(mtype)
        merged = {f.name: f.default for f in dataclasses.fields(params_cls)} if params_cls else {}
        merged.update(model)
        merged["type"] = mtype
        sampler = {"n_paths": 100000}
        sampler.update(d.get("sampler", {}))
        evolution = {"tau": None, "dt": 0.1, "bins": 40, "featured_lambda": None}
        evolution.update(d.get("evolution", {}))
        tolerances = {"tail_tol": 1e-12, "prob_cutoff": 1e-8, "max_states": 50000}
        tolerances.update(d.get("tolerances", {}))
        return cls(
            kind=kind,
            model=merged,
            protocol=d.get("protocol"),
            temperature=d.get("temperature"),
            sampler=sampler,
            evolution=evolution,
            sweep=dict(d.get("sweep", {})),
            quench=dict(d.get("quench", {})),
            tolerances=tolerances,
            filenames=dict(d.get("filenames", {})),
            out_dir=d.get("out_dir", "out"),
            quiet=bool(d.get("quiet", False)),
        )

    def semantic_dict(self) -> dict:
        """Fields that affect computed results (not where they are written)."""
        return {
            "kind": self.kind,
            "model": self.model,
            "protocol": self.protocol,
            "temperature": self.temperature,
            "sampler": self.sampler,
            "evolution": self.evolution,
            "sweep": self.sweep,
            "quench": self.quench,
            "tolerances": self.tolerances,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _model_params(config: RunConfig):
    kw = {k: v for k, v in config.model.items() if k != "type"}
    return _MODELS[config.model["type"]](**kw)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_count(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _shape_violations(raw) -> list[str]:
    """Checks a raw config must pass before ``RunConfig.from_dict`` can read it."""
    if not isinstance(raw, dict):
        return ["config: must be a JSON object"]
    violations = [
        f"{key}: must be an object" for key in _SECTIONS
        if key in raw and not isinstance(raw[key], dict)
    ]
    violations.extend(
        f"{key}: must be a string" for key in ("kind", "out_dir")
        if key in raw and not isinstance(raw[key], str)
    )
    model = raw.get("model")
    mtype = model.get("type") if isinstance(model, dict) else None
    if mtype is not None and not isinstance(mtype, str):
        violations.append("model.type: must be a string")
    return violations


def validate(config: RunConfig) -> list[str]:
    """Static checks; an empty list means the run would start."""
    violations = []
    if config.kind not in KINDS:
        violations.append(f"kind: '{config.kind}' is not one of {KINDS}")
        return violations
    mtype = config.model["type"]
    if mtype not in _MODELS or config.kind.split("-")[0] not in (mtype, "temperature"):
        violations.append(f"model.type: '{mtype}' cannot run kind '{config.kind}'")
        return violations
    params = None
    try:
        params = _model_params(config)
    except (TypeError, ValueError) as exc:
        violations.append(f"model: {exc}")
    if config.kind in _SAMPLING_KINDS:
        if not _is_count(config.sampler.get("seed"), 0):
            violations.append("sampler.seed: required (non-negative integer) for sampling runs")
        if not _is_count(config.sampler.get("n_paths"), 1):
            violations.append("sampler.n_paths: must be a positive integer")
        if not _is_number(config.temperature) or config.temperature <= 0:
            violations.append("temperature: must be a positive number for estimator runs")
    if config.kind in ("oscillator-je", "lattice-je", "lattice-run"):
        proto = config.protocol or {}
        if not _is_count(proto.get("stations"), 2):
            violations.append("protocol.stations: need an integer of at least 2")
        for key in ("lambda_start", "step"):
            if not _is_number(proto.get(key)):
                violations.append(f"protocol.{key}: required (number)")
    if config.kind == "oscillator-sweep":
        sw = config.sweep
        y_min, y_max = sw.get("y_min"), sw.get("y_max")
        if not (_is_number(y_min) and _is_number(y_max) and 0 < y_min < y_max):
            violations.append("sweep: need 0 < y_min < y_max")
        elif y_max > oscillator.MAX_POISSON_MEAN:
            violations.append(f"sweep.y_max: must be at most {oscillator.MAX_POISSON_MEAN:g}")
        if not _is_count(sw.get("points"), 2):
            violations.append("sweep.points: need an integer of at least 2")
    if config.kind == "temperature":
        q = config.quench
        if not _is_number(q.get("dlam")) or q["dlam"] <= 0:
            violations.append("quench.dlam: must be a positive number")
        for key in ("lambda", "eps"):
            if q.get(key) is not None and not _is_number(q[key]):
                violations.append(f"quench.{key}: must be a number")
    tol = config.tolerances
    for key, value in tol.items():
        if not _is_number(value) or value <= 0:
            violations.append(f"tolerances.{key}: must be a positive number")
    if _is_number(tol["prob_cutoff"]) and tol["prob_cutoff"] > lattice.MAX_PROB_CUTOFF:
        violations.append(f"tolerances.prob_cutoff: must be at most {lattice.MAX_PROB_CUTOFF:g}")
    if _is_number(tol["tail_tol"]) and tol["tail_tol"] > oscillator.MAX_TAIL_TOL:
        violations.append(f"tolerances.tail_tol: must be at most {oscillator.MAX_TAIL_TOL:g}")
    if not isinstance(tol["max_states"], int):
        violations.append("tolerances.max_states: must be an integer")
    lattice_evolves = config.kind in ("lattice-je", "lattice-run")
    violations.extend(_evolution_violations(config.evolution, params if lattice_evolves else None))
    for key, name in config.filenames.items():
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            violations.append(f"filenames.{key}: must be a file name without a directory part")
    if mtype == "oscillator" and config.kind != "oscillator-sweep" and not violations:
        violations.extend(_level_cap_violations(config, params))
    return violations


def _level_cap_violations(config: RunConfig, params: OscillatorParams) -> list[str]:
    """Quench amplitudes of an oscillator run whose Poisson occupations run
    past the oscillator's level cap; the lost mass would leave the station
    grids short and the ensembles unnormalizable midway through the run."""
    if config.kind == "temperature":
        _, dlam, eps = _quench(config)
        amplitudes = {"quench.dlam": dlam, "quench.eps": dlam + eps}
    else:
        amplitudes = {"protocol.step": config.protocol["step"]}
    violations = []
    for key, dlam in amplitudes.items():
        y = oscillator.y_parameter(params, dlam)
        kept = oscillator.poisson_probs(y, config.tolerances["tail_tol"]).sum()
        if kept < oscillator.MIN_GRID_MASS:
            violations.append(
                f"{key}: quench amplitude {dlam:g} gives Poisson mean y = {y:.4g}, beyond the "
                "levels the oscillator keeps"
            )
    return violations


def _evolution_violations(evolution: dict, params) -> list[str]:
    """Evolution settings; given lattice params, also the horizon and sample
    count that evolve_center_of_mass and time_average_distribution accept."""
    dt, tau = evolution.get("dt"), evolution.get("tau")
    if not _is_number(dt) or dt <= 0:
        return ["evolution.dt: must be a positive number"]
    if tau is not None and not _is_number(tau):
        return ["evolution.tau: must be a number"]
    violations = []
    if not _is_count(evolution.get("bins"), 1):
        violations.append("evolution.bins: must be a positive integer")
    featured = evolution.get("featured_lambda")
    if featured is not None and not _is_number(featured):
        violations.append("evolution.featured_lambda: must be a number")
    if isinstance(params, LatticeParams):
        n2 = params.n_sites**2
        # the length of np.arange(0, horizon + dt/2, dt), the series' time grid
        samples = math.ceil(((2.0 * n2 if tau is None else tau) + dt / 2.0) / dt)
        if (tau is not None and tau < n2) or (samples - 1) * dt < n2:
            violations.append(f"evolution.tau: the time grid must reach n_sites**2 = {n2}")
        if samples < lattice.MIN_SERIES_SAMPLES:
            violations.append(
                f"evolution.dt: tau/dt gives fewer than {lattice.MIN_SERIES_SAMPLES} samples"
            )
    return violations


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _protocol(config: RunConfig) -> QuenchProtocol:
    p = config.protocol
    return QuenchProtocol(
        lambda_start=float(p["lambda_start"]),
        step=float(p["step"]),
        stations=int(p["stations"]),
    )


def _write_profile(out: Path, name: str, profile) -> None:
    rows = zip(
        profile.lambdas, profile.delta_f, profile.targets, profile.work_std, profile.jackknife,
        profile.ess,
    )
    _write_csv(out / name, ["lambda", "dF_JE", "dF_target", "work_std", "jackknife", "ESS"], rows)


def _write_distribution(out: Path, name: str, dist) -> None:
    _write_csv(out / name, ["x", "f"], zip(dist.x, dist.density))


def _run_oscillator_sweep(config: RunConfig, out: Path, manifest: dict) -> list[str]:
    params = _model_params(config)
    ys = np.geomspace(config.sweep["y_min"], config.sweep["y_max"], config.sweep["points"])
    rows = oscillator.equilibrium_comparison(params, ys)
    name = config.filenames.get("sweep", "sweep.csv")
    _write_csv(out / name, ["y", "T", "T_B", "S", "S_B"], rows)
    return [name]


def _run_lattice_run(config: RunConfig, out: Path, manifest: dict) -> list[str]:
    params = _model_params(config)
    proto = _protocol(config)
    files = []
    for i, lam in enumerate(proto.lambdas[:-1], start=1):
        series = lattice.quench_series(
            params, lam, proto.step, tau=config.evolution["tau"], dt=config.evolution["dt"]
        )
        sname = f"series_station_{i:02d}.csv"
        _write_csv(out / sname, ["t", "x"], zip(series.times, series.values))
        dist = lattice.time_average_distribution(series, bins=config.evolution["bins"])
        hname = f"hist_station_{i:02d}.csv"
        _write_distribution(out, hname, dist)
        files.extend([sname, hname])
    return files


def _run_je(config: RunConfig, out: Path, manifest: dict) -> list[str]:
    evolution = config.evolution
    profile = jarzynski.build_profile(
        config.model["type"], _model_params(config), _protocol(config),
        1.0 / config.temperature, config.sampler["n_paths"], config.sampler["seed"],
        tail_tol=config.tolerances["tail_tol"],
        tau=evolution["tau"], dt=evolution["dt"], bins=evolution["bins"],
    )
    name = config.filenames.get("profile", "profile.csv")
    _write_profile(out, name, profile)
    files = [name]
    prefix = "dist" if config.model["type"] == "oscillator" else "hist"
    featured = evolution.get("featured_lambda")
    for i, (lam, dist) in enumerate(zip(profile.lambdas, profile.distributions), start=1):
        fname = f"{prefix}_station_{i:02d}.csv"
        _write_distribution(out, fname, dist)
        files.append(fname)
        if featured is not None and math.isclose(lam, featured):
            fname = config.filenames.get("featured_histogram", "featured_hist.csv")
            _write_distribution(out, fname, dist)
            files.append(fname)
    counts, edges = np.histogram(profile.final_work, bins=60)
    name = config.filenames.get("work_histogram", "work_hist.csv")
    _write_csv(out / name, ["W", "count"], zip(0.5 * (edges[:-1] + edges[1:]), counts))
    files.append(name)
    manifest["temperature"] = config.temperature
    manifest["min_ess"] = float(profile.ess.min())
    return files


def _quench(config: RunConfig) -> tuple[float, float, float]:
    """lambda (default 15), dlam and eps (default 0.1*dlam) of a temperature run."""
    q = config.quench
    lam, dlam, eps = q.get("lambda"), float(q["dlam"]), q.get("eps")
    lam = 15.0 if lam is None else float(lam)
    return lam, dlam, 0.1 * dlam if eps is None else float(eps)


def _run_temperature(config: RunConfig, out: Path, manifest: dict) -> list[str]:
    params = _model_params(config)
    lam, dlam, eps = _quench(config)
    tol = config.tolerances
    if config.model["type"] == "lattice":
        ensemble = lambda dl: lattice.diagonal_ensemble(
            params, lam, dl, prob_cutoff=tol["prob_cutoff"], max_states=tol["max_states"]
        )
        closed = None
    else:
        ensemble = lambda dl: oscillator.poisson_ensemble(params, lam, dl, tol["tail_tol"])
        closed = oscillator.temperature_closed_form(params, oscillator.y_parameter(params, dlam))
    ens_a, ens_b = (ensemble(dl) for dl in (dlam, dlam + eps))
    files = []
    for tag, ens, dl in (("a", ens_a, dlam), ("b", ens_b, dlam + eps)):
        name = f"ensemble_{tag}.csv"
        write_ensemble(ens, out / name, lam=lam, dlam=dl)
        files.append(name)
    est = temperature_from_pair(ens_a, ens_b)
    name = config.filenames.get("temperature", "temperature.csv")
    header = ["lambda", "dlam", "eps", "dS", "dE", "beta", "T"]
    row = [lam, dlam, eps, est.dS, est.dE, est.beta, est.temperature]
    if closed is not None:
        header.append("T_closed_form")
        row.append(closed)
    _write_csv(out / name, header, [tuple(row)])
    files.append(name)
    manifest["temperature_estimate"] = est.temperature
    manifest["captured_deficit"] = [ens_a.discarded_mass, ens_b.discarded_mass]
    return files


_RUNNERS = {
    "oscillator-sweep": _run_oscillator_sweep,
    "oscillator-je": _run_je,
    "lattice-run": _run_lattice_run,
    "lattice-je": _run_je,
    "temperature": _run_temperature,
}


def run(config: RunConfig) -> dict:
    """Execute a validated configuration; returns the manifest dict."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "kind": config.kind,
        "config_hash": config.config_hash(),
        "seed": config.sampler.get("seed"),
        "n_paths": config.sampler.get("n_paths"),
    }
    start = time.monotonic()
    files = _RUNNERS[config.kind](config, out, manifest)
    manifest["files"] = files
    manifest["wall_time_s"] = time.monotonic() - start
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quenchwork",
        description="Quench thermodynamics experiment runner",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", type=Path, help="JSON run configuration")
    group.add_argument("--preset", choices=sorted(PRESETS), help="named preset run")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="sampler seed override")
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
        if args.seed is not None:
            raw.setdefault("sampler", {})["seed"] = args.seed
        if args.quiet:
            raw["quiet"] = True
        config = RunConfig.from_dict(raw)
        violations = validate(config)
    if violations:
        print(json.dumps({"error": "validation_failed", "violations": violations}))
        return 2
    try:
        manifest = run(config)
    except EnsembleConvergenceError as exc:
        print(json.dumps({"error": "convergence_failed", "detail": str(exc)}))
        return 3
    if not config.quiet:
        print(json.dumps({"ok": True, "out_dir": config.out_dir, "files": manifest["files"]}))
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
