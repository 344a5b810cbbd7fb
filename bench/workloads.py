"""Workload definitions: the raw run configurations of one pass.

Each workload is a list of named raw config dicts, built from the benchmark
seed and passed to ``quenchwork.cli.RunConfig.from_dict``.  Where the program
samples, the seed becomes ``sampler.seed``; workloads that never sample get
the same inputs for every seed.
"""
from __future__ import annotations

import copy
import math

WORKLOADS = (
    "lattice-profile",
    "lattice-series",
    "oscillator-profiles",
    "lattice-temperature-sweep",
)

# criterion 7's window and lattice_temperature's enumeration cutoff
SWEEP_DLAM2 = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
SWEEP_LAMBDA = 15.0
SWEEP_PROB_CUTOFF = 1e-10

# fig4's chain at twice the size: trap scaled by (40/80)^2 keeps the
# oscillator length in sites, tau = N^2 is the shortest accepted horizon
SERIES_CONFIG = {
    "kind": "lattice-run",
    "model": {
        "type": "lattice",
        "n_sites": 80,
        "n_particles": 20,
        "hopping": 1.0,
        "trap": 0.005625,
        "center": 26.0,
    },
    "protocol": {"lambda_start": 27.0, "step": 1.0, "stations": 2},
    "evolution": {"tau": 6400.0, "dt": 0.1, "bins": 40},
}


def _seeded(preset: dict, seed: int) -> dict:
    raw = copy.deepcopy(preset)
    raw["sampler"]["seed"] = seed
    return raw


def raw_configs(workload: str, seed: int) -> dict[str, dict]:
    """Named raw configs of one pass of ``workload``, in run order."""
    from quenchwork.cli import PRESETS

    if workload == "lattice-profile":
        return {"fig4": _seeded(PRESETS["fig4"], seed)}
    if workload == "lattice-series":
        return {"series": copy.deepcopy(SERIES_CONFIG)}
    if workload == "oscillator-profiles":
        return {
            "fig2": copy.deepcopy(PRESETS["fig2"]),
            "fig3b": _seeded(PRESETS["fig3b"], seed),
            "fig3d": _seeded(PRESETS["fig3d"], seed),
        }
    if workload == "lattice-temperature-sweep":
        out = {}
        for d2 in SWEEP_DLAM2:
            dlam = math.sqrt(d2)
            out[f"dlam2-{d2:g}"] = {
                "kind": "temperature",
                "model": {"type": "lattice"},
                "quench": {"lambda": SWEEP_LAMBDA, "dlam": dlam, "eps": 0.1 * dlam},
                "tolerances": {"prob_cutoff": SWEEP_PROB_CUTOFF},
            }
        return out
    raise ValueError(f"unknown workload '{workload}'")


def needed_draws(raws: dict[str, dict]) -> int:
    """Coordinate draws a pass needs: n_paths per step of every sampling config."""
    total = 0
    for raw in raws.values():
        if raw.get("kind") in ("oscillator-je", "lattice-je"):
            total += raw["sampler"]["n_paths"] * (raw["protocol"]["stations"] - 1)
    return total
