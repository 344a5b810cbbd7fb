"""Output checks of one pass; each returns a list of problems, empty when the
outputs are correct.

The checks read the files a pass wrote and recompute what they can without
quenchwork, so a fault in the package cannot vouch for itself.  A warning
raised by the program is not a failure; a missing or malformed file is.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

FIG4_RATIO = (1.0, 1.2)          # dF(20)/target, criterion 8
FIG4_PEAKS = 2                   # featured lambda=14 histogram
PEAK_PROMINENCE = 0.10
MIN_ESS = 10.0
SERIES_X0_TOL = 1e-9
SERIES_MEAN_TOL = 0.01
T_ANCHOR = 0.1953                # lattice temperature at lambda=15, dlam=1
T_ANCHOR_REL = 0.01
MAX_DISCARDED = 1e-6


def read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a numeric CSV with one header line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if not body or any(len(r) != len(header) for r in body):
        raise ValueError(f"{path.name}: empty or ragged")
    cols = {h: [float(r[i]) for r in body] for i, h in enumerate(header)}
    if not all(math.isfinite(v) for col in cols.values() for v in col):
        raise ValueError(f"{path.name}: non-finite value")
    return cols


def count_peaks(values: list[float], prominence_frac: float) -> int:
    from scipy.signal import find_peaks

    peaks, _ = find_peaks(values, prominence=prominence_frac * max(values))
    return int(peaks.size)


def slater_center_of_mass(model: dict, lam: float) -> float:
    """sum_k k n_k / N_b of the ground state of H(lam), by dense
    diagonalization of the one-body matrix."""
    import numpy as np

    n, nb = model["n_sites"], model["n_particles"]
    k = np.arange(1, n + 1, dtype=float)
    h = np.diag(model["trap"] * ((k - model["center"]) ** 2 + (k - lam) ** 2))
    h -= model["hopping"] * (np.eye(n, k=1) + np.eye(n, k=-1))
    _, vecs = np.linalg.eigh(h)
    density = (vecs[:, :nb] ** 2).sum(axis=1)
    return float(density @ k / nb)


def _check_lattice_profile(out: Path, raws: dict) -> list[str]:
    raw = raws["fig4"]
    problems = []
    prof = read_csv(out / "fig4" / raw["filenames"]["profile"])
    ratio = prof["dF_JE"][-1] / prof["dF_target"][-1]
    if not FIG4_RATIO[0] <= ratio <= FIG4_RATIO[1]:
        problems.append(f"fig4: dF(20)/target = {ratio:.4f} outside {FIG4_RATIO}")
    if min(prof["ESS"]) < MIN_ESS:
        problems.append(f"fig4: min ESS {min(prof['ESS']):.2f} < {MIN_ESS}")
    hist = read_csv(out / "fig4" / raw["filenames"]["featured_histogram"])
    peaks = count_peaks(hist["f"], PEAK_PROMINENCE)
    if peaks != FIG4_PEAKS:
        problems.append(f"fig4: featured histogram has {peaks} peaks, want {FIG4_PEAKS}")
    return problems


def _check_lattice_series(out: Path, raws: dict) -> list[str]:
    raw = raws["series"]
    model, proto, evo = raw["model"], raw["protocol"], raw["evolution"]
    problems = []
    series = read_csv(out / "series" / "series_station_01.csv")
    rows = round(evo["tau"] / evo["dt"]) + 1
    if len(series["x"]) != rows:
        problems.append(f"series: {len(series['x'])} rows, want {rows}")
    lam = proto["lambda_start"]
    x0 = slater_center_of_mass(model, lam - proto["step"])
    if abs(series["x"][0] - x0) > SERIES_X0_TOL:
        problems.append(f"series: x(0) = {series['x'][0]!r}, initial state gives {x0!r}")
    mean = math.fsum(series["x"]) / len(series["x"])
    expect = (model["center"] + lam) / 2.0
    if abs(mean - expect) > SERIES_MEAN_TOL:
        problems.append(f"series: time average {mean:.6f}, want {expect} +- {SERIES_MEAN_TOL}")
    read_csv(out / "series" / "hist_station_01.csv")
    return problems


def _check_oscillator_profiles(out: Path, raws: dict) -> list[str]:
    problems = []
    sweep = read_csv(out / "fig2" / raws["fig2"]["filenames"]["sweep"])
    if len(sweep["T"]) != raws["fig2"]["sweep"]["points"] or min(sweep["T"]) <= 0:
        problems.append("fig2: wrong row count or non-positive temperature")
    b = read_csv(out / "fig3b" / raws["fig3b"]["filenames"]["profile"])
    for lam, df, target, std in zip(b["lambda"], b["dF_JE"], b["dF_target"], b["work_std"]):
        if abs(df - target) > std:
            problems.append(f"fig3b: gap {abs(df - target):.4f} > work_std {std:.4f} at lambda={lam:g}")
    d = read_csv(out / "fig3d" / raws["fig3d"]["filenames"]["profile"])
    if not d["dF_JE"][-1] > d["dF_target"][-1]:
        problems.append(f"fig3d: final dF {d['dF_JE'][-1]:.4f} not above target {d['dF_target'][-1]:.4f}")
    for tag, prof in (("fig3b", b), ("fig3d", d)):
        if min(prof["ESS"]) < MIN_ESS:
            problems.append(f"{tag}: min ESS {min(prof['ESS']):.2f} < {MIN_ESS}")
    return problems


def _check_temperature_sweep(out: Path, raws: dict) -> list[str]:
    problems = []
    temps = []
    for name, raw in raws.items():
        row = read_csv(out / name / "temperature.csv")
        temps.append((raw["quench"]["dlam"], row["T"][0]))
        deficits = json.loads((out / name / "manifest.json").read_text())["captured_deficit"]
        if max(deficits) > MAX_DISCARDED:
            problems.append(f"{name}: discarded mass {max(deficits):.3g} > {MAX_DISCARDED}")
    t_one = [t for dlam, t in temps if math.isclose(dlam, 1.0)]
    if len(t_one) != 1 or abs(t_one[0] / T_ANCHOR - 1.0) > T_ANCHOR_REL:
        problems.append(f"T(dlam=1) = {t_one} not within {T_ANCHOR_REL:.0%} of {T_ANCHOR}")
    temps.sort()
    if any(t2 <= t1 for (_, t1), (_, t2) in zip(temps, temps[1:])):
        problems.append(f"T does not rise with dlam: {[round(t, 5) for _, t in temps]}")
    return problems


_CHECKS = {
    "lattice-profile": _check_lattice_profile,
    "lattice-series": _check_lattice_series,
    "oscillator-profiles": _check_oscillator_profiles,
    "lattice-temperature-sweep": _check_temperature_sweep,
}


def check_pass(workload: str, out: Path, raws: dict) -> list[str]:
    """Problems with the outputs one pass of ``workload`` wrote under ``out``."""
    try:
        return _CHECKS[workload](out, raws)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
