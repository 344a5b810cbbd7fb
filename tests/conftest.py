import json

import pytest

from quenchwork.cli import RunConfig, run, validate


@pytest.fixture
def lattice_temperature(tmp_path):
    """T of the CLI's ``temperature`` kind on the default lattice, read from
    the manifest the run writes."""

    def temperature(lam, dlam, prob_cutoff):
        out = tmp_path / f"lambda{lam:g}-dlam{dlam:g}"
        config = RunConfig.from_dict({
            "kind": "temperature",
            "model": {"type": "lattice"},
            "quench": {"lambda": lam, "dlam": dlam},
            "tolerances": {"prob_cutoff": prob_cutoff},
            "out_dir": str(out),
        })
        assert validate(config) == []
        run(config)
        return json.loads((out / "manifest.json").read_text())["temperature_estimate"]

    return temperature
