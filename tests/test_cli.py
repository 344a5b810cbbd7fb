import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quenchwork
from oracles import model_profile, one_body_hamiltonian
from quenchwork.cli import FIELDS, KINDS, PRESETS, REQUIRED, Rejected, RunConfig, main, run, validate
from quenchwork.ensembles import write_csv
from quenchwork.jarzynski import MAX_PATHS
from quenchwork.lattice import (
    MAX_SERIES_SAMPLES,
    MAX_SITES,
    MIN_SERIES_SAMPLES,
    LatticeParams,
    evolve_center_of_mass,
    series_samples,
    spectrum,
)
from quenchwork.distributions import (
    MAX_HISTOGRAM_BINS, MAX_STATIONS, PositionDistribution, QuenchProtocol, histogram_span)
from quenchwork.oscillator import (
    OscillatorParams,
    poisson_ensemble,
    position_distribution,
    temperature_closed_form,
    y_parameter,
)

SMALL_LATTICE_JE = {
    "kind": "lattice-je",
    "model": {
        "type": "lattice",
        "n_sites": 8,
        "n_particles": 2,
        "trap": 0.05,
        "center": 2.0,
    },
    "protocol": {"lambda_start": 2.0, "step": 1.0, "stations": 3},
    "temperature": 0.25,
    "sampler": {"n_paths": 2000, "seed": 5},
    "evolution": {"tau": 128.0, "dt": 0.1, "bins": 25, "featured_lambda": 3.0},
}

SMALL_OSC_JE = {
    "kind": "oscillator-je",
    "model": {"type": "oscillator"},
    "protocol": {"lambda_start": 0.0, "step": 0.6935, "stations": 4},
    "temperature": 0.35,
    "sampler": {"n_paths": 3000, "seed": 2},
}


def config_with(base, out_dir, **overrides):
    raw = copy.deepcopy(base)
    raw.update(overrides)
    raw["out_dir"] = str(out_dir)
    return RunConfig.from_dict(raw)


def test_validate_missing_seed():
    raw = copy.deepcopy(SMALL_LATTICE_JE)
    del raw["sampler"]["seed"]
    violations = validate(RunConfig.from_dict(raw))
    assert len(violations) == 1
    assert "seed" in violations[0]


def test_validate_overfilled_lattice():
    raw = copy.deepcopy(SMALL_LATTICE_JE)
    raw["model"]["n_particles"] = 9
    violations = validate(RunConfig.from_dict(raw))
    assert len(violations) == 1
    assert "model" in violations[0]


def test_validate_presets_clean():
    for name, preset in PRESETS.items():
        assert validate(RunConfig.from_dict(preset)) == [], name


def test_validate_unknown_kind():
    violations = validate(RunConfig.from_dict({"kind": "banana"}))
    assert violations and "kind" in violations[0]


def test_oscillator_je_outputs(tmp_path):
    config = config_with(SMALL_OSC_JE, tmp_path / "a")
    manifest = run(config)
    out = tmp_path / "a"
    assert (out / "profile.csv").exists()
    assert (out / "dist_station_01.csv").exists()
    assert (out / "work_hist.csv").exists()
    assert (out / "manifest.json").exists()
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "lambda,dF_JE,dF_target,work_std,jackknife,ESS"
    assert manifest["config_hash"] == config.config_hash()


def test_byte_identical_reruns(tmp_path):
    run(config_with(SMALL_OSC_JE, tmp_path / "r1"))
    run(config_with(SMALL_OSC_JE, tmp_path / "r2"))
    for name in ("profile.csv", "dist_station_01.csv", "work_hist.csv"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


def test_manifest_hash_semantics(tmp_path):
    base = config_with(SMALL_OSC_JE, tmp_path / "h1")
    moved = config_with(SMALL_OSC_JE, tmp_path / "h2")
    assert base.config_hash() == moved.config_hash()
    reseeded = copy.deepcopy(SMALL_OSC_JE)
    reseeded["sampler"]["seed"] = 99
    assert RunConfig.from_dict(reseeded).config_hash() != base.config_hash()
    warmer = copy.deepcopy(SMALL_OSC_JE)
    warmer["temperature"] = 0.36
    assert RunConfig.from_dict(warmer).config_hash() != base.config_hash()


@pytest.mark.parametrize("spellings", [
    [{"quench": {"dlam": 1.0}}, {"quench": {"dlam": 1.0, "eps": None}},
     {"quench": {"lambda": 15.0, "dlam": 1.0, "eps": 0.1}}],
    [{}, {"protocol": {}}],
], ids=["quench", "protocol"])
def test_config_hash_fills_in_defaults(spellings):
    """A config that writes a default out hashes like one that leaves it out."""
    base = {"kind": "temperature", "model": {"type": "lattice"}}
    hashes = {RunConfig.from_dict({**base, **spelling}).config_hash() for spelling in spellings}
    assert len(hashes) == 1


def test_config_hash_reads_only_the_sections_the_kind_reads():
    """Sections a lattice temperature run never reads leave its hash alone;
    a changed quench moves it."""
    preset = PRESETS["lattice-temperature"]
    hashes = {RunConfig.from_dict({**preset, **stray}).config_hash()
              for stray in ({}, {"sampler": {"seed": 5}}, {"evolution": {"bins": 30}})}
    assert len(hashes) == 1
    wider = RunConfig.from_dict({**preset, "quench": {**preset["quench"], "dlam": 2.0}})
    assert wider.config_hash() not in hashes


def child_python(*args, timeout=None):
    """``python *args`` in a child process that imports the same package as
    this process, installed or not."""
    src = str(Path(quenchwork.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def run_child(tmp_path, raw, out, timeout=None):
    """``python -m quenchwork.cli`` on ``raw`` in a child process."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    child_python("-m", "quenchwork.cli", "--config", str(path), "--out", str(tmp_path / out),
                 "--quiet", timeout=timeout)


def test_cli_imports_no_scipy():
    loaded = child_python(
        "-c", "import sys, quenchwork.cli; print(*(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert loaded.split() == []


def test_cli_imports_argparse_only_in_main(tmp_path):
    out = tmp_path / "fig2"
    loaded = child_python("-c", f"""
import sys, quenchwork, quenchwork.cli
print('argparse' in sys.modules)
code = quenchwork.cli.main(['--preset', 'fig2', '--out', {str(out)!r}, '--quiet'])
print(code, 'argparse' in sys.modules)
""")
    assert loaded.split() == ["False", "0", "True"]
    assert (out / "fig2.csv").is_file()


def test_near_zero_temperature_profile_is_finite(tmp_path):
    # beta = 1/6e-309 overflows beta*W for any work below about -1.08
    run_child(tmp_path, {**SMALL_OSC_JE, "temperature": 6e-309}, "cold")
    rows = (tmp_path / "cold" / "profile.csv").read_text().splitlines()[1:]
    values = [float(v) for row in rows for v in row.split(",")]
    assert len(values) == 4 * 6 and all(map(math.isfinite, values))


def test_subnormal_work_range_writes_a_work_histogram(tmp_path, capsys):
    """Every path's work lies within a subnormal range, too narrow for 60 bins
    of np.histogram's own range."""
    raw = {"kind": "oscillator-je", "model": {"type": "oscillator", "stiffness": 2.0},
           "temperature": 1.0, "protocol": {"lambda_start": 0.0, "step": 5e-324, "stations": 2},
           "sampler": {"seed": 0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert len((out / "work_hist.csv").read_text().splitlines()) == 61
    assert not any("nan" in csv.read_text() for csv in out.glob("*.csv"))


@pytest.mark.parametrize("step", [0.6935, 0.0], ids=["spread", "constant"])
def test_work_histogram_counted_in_slices_is_that_of_the_whole_sample(tmp_path, step):
    """The run counts its work histogram over slices of the final work; with a
    sample that is no multiple of the slice, its counts and bin centers are
    np.histogram's of the whole sample, also where a constant sample (step 0)
    has its range opened by histogram_span."""
    n_paths = 3 * (1 << 14) + 5
    raw = {**SMALL_OSC_JE, "protocol": {"lambda_start": 0.0, "step": step, "stations": 3},
           "sampler": {"n_paths": n_paths, "seed": 3}}
    run(config_with(raw, tmp_path / "o"))
    work = model_profile(OscillatorParams(), QuenchProtocol(0.0, step, 3), 1.0 / 0.35,
                         n_paths, 3).final_work
    lo, hi = work.min(), work.max()
    span = histogram_span(lo, hi)
    assert (span == hi - lo) == (step != 0.0)
    limits = (lo, hi if span == hi - lo else lo + span)
    counts, edges = np.histogram(work, bins=60, range=limits)
    write_csv(tmp_path / "expected.csv", ["W,count"], (0.5 * (edges[:-1] + edges[1:]), counts))
    assert (tmp_path / "o" / "work_hist.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_je_run_memory_stays_under_three_path_arrays(tmp_path):
    """A 100 000-path oscillator-je run holds the profile's two path buffers
    at most, and its work histogram adds no path-length temporary."""
    n_paths = 100_000
    config = config_with(
        {**SMALL_OSC_JE, "protocol": {"lambda_start": 0.0, "step": 0.6935, "stations": 3},
         "sampler": {"n_paths": n_paths, "seed": 1}}, tmp_path / "o")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n_paths)
    assert arrays < 3.0, f"peak of {arrays:.2f} path-length arrays"


def test_featured_histogram_is_written_once(tmp_path):
    """Stations 1e-10 apart all match featured_lambda under math.isclose; the
    run writes the featured file once, from the first, the one validate reads."""
    raw = {"kind": "oscillator-je", "model": {"type": "oscillator"}, "temperature": 0.35,
           "protocol": {"lambda_start": 1.0, "step": 1e-10, "stations": 4},
           "sampler": {"n_paths": 1000, "seed": 1}, "evolution": {"featured_lambda": 1.0}}
    files = run(config_with(raw, tmp_path))["files"]
    assert len(files) == len(set(files))
    featured = (tmp_path / "featured_hist.csv").read_bytes()
    assert featured == (tmp_path / "dist_station_01.csv").read_bytes()


def test_byte_identical_across_processes(tmp_path):
    for d in ("p1", "p2"):
        run_child(tmp_path, SMALL_OSC_JE, d)
    a = (tmp_path / "p1" / "profile.csv").read_bytes()
    b = (tmp_path / "p2" / "profile.csv").read_bytes()
    assert a == b


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_lattice_je_outputs(tmp_path):
    config = config_with(SMALL_LATTICE_JE, tmp_path / "lat")
    manifest = run(config)
    out = tmp_path / "lat"
    assert (out / "profile.csv").exists()
    assert (out / "hist_station_01.csv").exists()
    assert (out / "featured_hist.csv").exists()
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 6)
    assert rows[0, 1] == 0.0  # dF at the first station
    assert manifest["min_ess"] > 0


def test_long_lattice_run_keeps_few_spectra(tmp_path):
    """A 100-station run needs 100 spectra; the spectrum cache keeps a bounded
    number of them, so the peak stays below 64 arrays of N^2 doubles."""
    n = 120
    config = config_with({
        "kind": "lattice-run",
        "model": {"type": "lattice", "n_sites": n, "n_particles": 30, "trap": 0.0025, "center": 39.0},
        "protocol": {"lambda_start": 45.0, "step": 0.25, "stations": 100},
        "evolution": {"tau": float(n * n), "dt": n * n / 1000},
    }, tmp_path)
    spectrum.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * n)
    assert arrays < 64, f"peak of {arrays:.1f} arrays of N^2 doubles"


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_lattice_run_outputs(tmp_path):
    raw = copy.deepcopy(SMALL_LATTICE_JE)
    raw["kind"] = "lattice-run"
    config = config_with(raw, tmp_path / "run")
    manifest = run(config)
    out = tmp_path / "run"
    assert (out / "series_station_01.csv").exists()
    assert (out / "hist_station_02.csv").exists()
    series = np.loadtxt(out / "series_station_01.csv", delimiter=",", skiprows=1)
    assert series.shape[1] == 2
    assert series[0, 0] == 0.0
    params = LatticeParams(**{k: v for k, v in raw["model"].items() if k != "type"})
    assert manifest["edge_occupancy"] == [
        evolve_center_of_mass(params, lam, 1.0, tau=128.0, dt=0.1).edge_occupancy
        for lam in (2.0, 3.0)
    ]


GOLDEN = Path(__file__).parent / "data"


def check_golden_outputs(raw, name, out):
    """Run the config ``raw`` into ``out`` and compare its CSVs with the
    committed ones in tests/data/<name>: the leading ``#`` lines, or else
    the column header, as text, except that ``# discarded_mass`` may move by
    1e-14, and the numbers to rtol 1e-9, so that a kernel drifting between
    commits shows while other BLAS builds still pass."""
    run(RunConfig.from_dict({**copy.deepcopy(raw), "out_dir": str(out), "quiet": True}))
    golden = GOLDEN / name
    files = sorted(path.name for path in golden.glob("*.csv"))
    assert sorted(path.name for path in out.glob("*.csv")) == files
    for name in files:
        want, got = ((d / name).read_text().splitlines() for d in (golden, out))
        assert len(got) == len(want), name
        head = sum(line.startswith("#") for line in want) or 1
        for w, g in zip(want[:head], got[:head]):
            key, _, value = w.partition(": ")
            if key == "# discarded_mass":
                assert g.startswith(key + ": "), name
                assert float(g.partition(": ")[2]) == pytest.approx(float(value), rel=0, abs=1e-14)
            else:
                assert g == w, name
        np.testing.assert_allclose(
            np.loadtxt(got[head:], delimiter=","), np.loadtxt(want[head:], delimiter=","),
            rtol=1e-9, atol=0.0, err_msg=name,
        )


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_fig4_matches_its_golden_outputs(tmp_path):
    check_golden_outputs(PRESETS["fig4"], "fig4", tmp_path)


def test_lattice_temperature_matches_its_golden_outputs(tmp_path):
    """The excitation search's two ensembles, state for state, and the
    temperature taken from them."""
    check_golden_outputs(PRESETS["lattice-temperature"], "lattice-temperature", tmp_path)


def test_oscillator_temperature_matches_its_golden_outputs(tmp_path):
    """The two Poisson ensembles, the temperature taken from them and the
    closed form at the first quench's y."""
    raw = {"kind": "temperature", "model": {"type": "oscillator"},
           "quench": {"lambda": 0.5, "dlam": 1.3}}
    check_golden_outputs(raw, "oscillator-temperature", tmp_path)


def test_manifest_records_every_warning(tmp_path):
    """Warnings reach the caller as raised and land in the manifest in the
    same order, also where the caller's filters ignore them."""
    raw = {**SMALL_LATTICE_JE, "kind": "lattice-run"}
    with pytest.warns(UserWarning) as caught:
        manifest = run(config_with(raw, tmp_path / "w1"))
    assert manifest["warnings"] == [
        {"category": w.category.__name__, "message": str(w.message)} for w in caught
    ]
    assert len(caught) == 2  # one per station
    assert [w["message"].split(";")[0] for w in manifest["warnings"]] == [
        f"edge occupancy may reach {edge:.3e}" for edge in manifest["edge_occupancy"]
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run(config_with(raw, tmp_path / "w2"))
    first, second = (json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("w1", "w2"))
    del first["wall_time_s"], second["wall_time_s"]
    assert first == second


@pytest.mark.filterwarnings("ignore:edge occupancy")
@pytest.mark.parametrize(
    "raw",
    [*PRESETS.values(), {**SMALL_LATTICE_JE, "kind": "lattice-run"},
     {"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"lambda": 0.5, "dlam": 1.3}}],
    ids=[*PRESETS, "lattice-run", "oscillator-temperature"],
)
def test_manifest_lists_the_files_written(tmp_path, raw):
    """The manifest lists every file the run wrote, each once, and records
    the sampler's seed and path count, right after the config hash, only
    where the run samples."""
    manifest = run(config_with(raw, tmp_path))
    assert len(set(manifest["files"])) == len(manifest["files"])
    assert set(manifest["files"]) == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert json.loads((tmp_path / "manifest.json").read_text())["files"] == manifest["files"]
    sampler = ["seed", "n_paths"] if raw["kind"].endswith("-je") else []
    assert [key for key in manifest if key in ("seed", "n_paths")] == sampler
    assert list(manifest)[:2 + len(sampler)] == ["kind", "config_hash", *sampler]


def test_oscillator_sweep_outputs(tmp_path):
    config = RunConfig.from_dict(
        {
            "kind": "oscillator-sweep",
            "model": {"type": "oscillator"},
            "sweep": {"y_min": 0.01, "y_max": 1.0, "points": 5},
            "out_dir": str(tmp_path / "sw"),
        }
    )
    assert validate(config) == []
    run(config)
    text = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert text[0] == "y,T,T_B,S,S_B"
    assert len(text) == 6


def test_oscillator_sweep_from_the_least_positive_y(tmp_path):
    """At y = 5e-324, where 1/y overflows, T_B = 1/ln(1 + 1/y) = 1/(1074 ln 2)
    is finite and equals T there, and the run raises no warning."""
    config = RunConfig.from_dict(
        {
            "kind": "oscillator-sweep",
            "model": {"type": "oscillator"},
            "sweep": {"y_min": 5e-324, "y_max": 1.0, "points": 5},
            "out_dir": str(tmp_path / "sw"),
        }
    )
    assert validate(config) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(config)["warnings"] == []
    _, t, t_b = np.loadtxt(tmp_path / "sw" / "sweep.csv", delimiter=",", skiprows=1)[0, :3]
    assert t_b == pytest.approx(1.0 / (1074 * math.log(2.0)), rel=1e-11)
    assert t_b == pytest.approx(t, rel=1e-11)


def test_temperature_kind_oscillator(tmp_path):
    config = RunConfig.from_dict(
        {
            "kind": "temperature",
            "model": {"type": "oscillator"},
            "quench": {"lambda": 0.0, "dlam": 0.6935, "eps": None},
            "out_dir": str(tmp_path / "t"),
        }
    )
    assert validate(config) == []
    run(config)
    out = tmp_path / "t"
    lines = (out / "temperature.csv").read_text().splitlines()
    assert lines[0].endswith("T_closed_form")
    values = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert abs(float(values["T"]) - 0.36) < 0.02
    assert (out / "ensemble_a.csv").exists()


def test_main_prints_one_success_line(tmp_path, capsys):
    """Without --quiet a run prints one JSON line, which lists the files the
    manifest lists."""
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(SMALL_OSC_JE))
    assert main(["--config", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert json.loads(lines[0]) == {"ok": True, "out_dir": str(out), "files": manifest["files"]}


def test_main_validation_failure(tmp_path, capsys):
    bad = copy.deepcopy(SMALL_LATTICE_JE)
    del bad["sampler"]["seed"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "validation_failed"
    assert out["violations"]


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_main_convergence_failure(tmp_path, capsys):
    raw = {
        "kind": "temperature",
        "model": {"type": "lattice"},
        "quench": {"lambda": 15.0, "dlam": 1.0},
        "tolerances": {"prob_cutoff": 1e-8, "max_states": 3},
    }
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(raw))
    code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "convergence_failed"


def test_main_converges_on_an_underflowing_fermi_sea(tmp_path):
    """ln|det A0| = -707.3 on this half-filled chain, so det(A0)^2 is 0 in
    double precision; the search weighs states by ln det^2 and still
    reaches the heavy ones."""
    row = temperature_row(tmp_path, {
        "kind": "temperature",
        "model": {"type": "lattice", "n_sites": 80, "n_particles": 40, "trap": 0.3, "center": 40.3},
        "quench": {"lambda": 40.1, "dlam": 8.0},
    })
    assert math.isfinite(row["T"]) and row["T"] > 0.0


def test_main_seed_override_changes_output(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_OSC_JE))
    assert main(["--config", str(path), "--out", str(tmp_path / "s1"), "--quiet"]) == 0
    assert main(
        ["--config", str(path), "--out", str(tmp_path / "s2"), "--seed", "77", "--quiet"]
    ) == 0
    a = (tmp_path / "s1" / "work_hist.csv").read_bytes()
    b = (tmp_path / "s2" / "work_hist.csv").read_bytes()
    assert a != b
    manifest = json.loads((tmp_path / "s2" / "manifest.json").read_text())
    assert manifest["seed"] == 77


def test_main_seed_leaves_a_kind_that_does_not_sample_alone(tmp_path):
    """--seed reaches only a kind that samples: on lattice-temperature it
    changes neither the config hash nor a byte of the CSVs."""
    plain, seeded = tmp_path / "plain", tmp_path / "seeded"
    for out, extra in ((plain, []), (seeded, ["--seed", "5"])):
        assert main(["--preset", "lattice-temperature", "--out", str(out), "--quiet", *extra]) == 0
    hashes = [json.loads((out / "manifest.json").read_text())["config_hash"] for out in (plain, seeded)]
    assert hashes[0] == hashes[1]
    names = sorted(path.name for path in plain.glob("*.csv"))
    assert names == sorted(path.name for path in seeded.glob("*.csv"))
    assert all((plain / name).read_bytes() == (seeded / name).read_bytes() for name in names)


def main_violations(tmp_path, capsys, raw):
    """Exit code and violations of ``main`` on a config file holding ``raw``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "validation_failed"
    return code, out["violations"]


def library_violations(raw, out_dir):
    """Violations of ``raw`` on the library path: ``RunConfig.from_dict``, then
    ``run`` with its output under ``out_dir``."""
    try:
        config = RunConfig.from_dict(raw)
        config.out_dir = str(out_dir)
        run(config)
    except Rejected as exc:
        return exc.args[0]
    return []


def with_changes(base, **sections):
    raw = copy.deepcopy(base)
    for section, values in sections.items():
        if isinstance(raw.get(section), dict):
            raw[section].update(values)
        else:
            raw[section] = values
    return raw


LATTICE_TEMPERATURE = {"kind": "temperature", "model": {"type": "lattice"},
                       "quench": {"lambda": 15.0, "dlam": 1.0}}


def temperature_row(tmp_path, raw):
    """The temperature.csv row, by column, of a successful ``main`` run of ``raw``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "temperature.csv").read_text().splitlines()
    return dict(zip(lines[0].split(","), map(float, lines[1].split(","))))


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-10])
def test_oscillator_temperature_far_out_matches_the_closed_form(tmp_path, eps):
    """At lambda = 1e5 every level carries k lambda^2/4 = 1.25e9; dE is taken
    about the lowest level, so the offset does not cancel its digits away."""
    row = temperature_row(tmp_path, {"kind": "temperature", "model": {"type": "oscillator"},
                                     "quench": {"lambda": 1e5, "dlam": 1.3, "eps": eps}})
    assert abs(row["T"] - row["T_closed_form"]) < 1e-5


@pytest.mark.parametrize("model, dlam", [("lattice", 1e-5), ("oscillator", 1e-8)])
def test_temperature_of_a_tiny_quench_is_zero(tmp_path, model, dlam):
    """Quenches too small to leave the ground state keep a single state in
    both ensembles: dS = dE = 0, which temperature_from_pair reports as T = 0."""
    row = temperature_row(tmp_path, {"kind": "temperature", "model": {"type": model},
                                     "quench": {"dlam": dlam}})
    assert (row["dS"], row["dE"], row["T"]) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("stiffness, lam", [(0.3, 2.39e5), (0.5, 2.62e5), (2.0, 1.85e5)])
def test_oscillator_temperature_at_the_largest_lambda_the_offset_rule_accepts(
        tmp_path, stiffness, lam):
    """Up to where k lambda^2/4 has a float spacing of 1e-6 hbar*omega, T
    stays that of lambda = 0; a lambda 1% further out is rejected."""
    params = OscillatorParams(stiffness=stiffness)
    with pytest.raises(ValueError, match="^lam: "):
        poisson_ensemble(params, 1.01 * lam, 1.0)
    raw = {"kind": "temperature", "model": {"type": "oscillator", "stiffness": stiffness},
           "quench": {"lambda": lam, "dlam": 1.0}}
    far = temperature_row(tmp_path, raw)["T"]
    near = temperature_row(tmp_path, with_changes(raw, quench={"lambda": 0.0}))["T"]
    assert far == pytest.approx(near, rel=1e-6)


# pairs whose dS and dE are tiny in absolute terms but resolved against the
# rounding of their own entropies and energies
SMALL_SCALE_PAIRS = {
    "oscillator-stiffness-5e-13": {"kind": "temperature",
                                   "model": {"type": "oscillator", "stiffness": 5e-13},
                                   "quench": {"lambda": 0, "dlam": 2828, "eps": 1e-6}},
    "lattice-hopping-1e-6": {"kind": "temperature",
                             "model": {"type": "lattice", "hopping": 1e-6, "trap": 1e-8},
                             "quench": {"dlam": 1, "eps": 1e-9}},
}


@pytest.mark.parametrize("raw", SMALL_SCALE_PAIRS.values(), ids=list(SMALL_SCALE_PAIRS))
def test_a_pair_on_a_small_energy_scale_has_a_temperature(tmp_path, raw):
    row = temperature_row(tmp_path, raw)
    assert 0.0 < row["T"] < math.inf
    if "T_closed_form" in row:
        assert row["T"] == pytest.approx(row["T_closed_form"], rel=1e-6)


def test_lattice_temperature_is_free_of_the_energy_unit(tmp_path):
    """Hopping and trap scaled by c scale T by c: dS and dE are judged against
    their own rounding, not an absolute threshold, which refused the scaled
    pair.  A near-repeat eps of 1e-14 is resolved too: it used to give T = 0."""
    base, c = with_changes(LATTICE_TEMPERATURE, quench={"eps": 1e-9}), 1e-6
    unscaled = temperature_row(tmp_path, base)["T"]
    scaled = temperature_row(tmp_path, with_changes(base, model={"hopping": c, "trap": 0.0225 * c}))
    assert scaled["T"] / c == pytest.approx(unscaled, rel=1e-5)
    near = temperature_row(tmp_path, with_changes(LATTICE_TEMPERATURE, quench={"eps": 1e-14}))
    assert near["T"] == pytest.approx(unscaled, rel=0.05)


@pytest.mark.filterwarnings("ignore:max_states=20 left")
@pytest.mark.parametrize("tolerances", [{}, {"max_states": 20}], ids=["converged", "truncated"])
def test_lattice_temperature_records_its_energy_gap(tmp_path, tolerances):
    """Each ensemble's mean energy misses the exact one-body E by at most its
    discarded mass times the range of many-body energies, the top N_b levels
    less the bottom N_b."""
    raw = with_changes(LATTICE_TEMPERATURE, tolerances=tolerances)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    levels = np.linalg.eigvalsh(one_body_hamiltonian(LatticeParams(), 15.0))
    span = levels[-10:].sum() - levels[:10].sum()
    assert len(manifest["energy_gap"]) == 2
    for gap, deficit in zip(manifest["energy_gap"], manifest["captured_deficit"]):
        assert abs(gap) <= deficit * span
    assert (max(manifest["captured_deficit"]) > 1e-8) == bool(tolerances)


# grids that lattice.series_samples rejects, and the field each fails under
HORIZON_CASES = [
    (with_changes(SMALL_LATTICE_JE, evolution={"tau": 50.0, "dt": 0.04}), "evolution.tau"),
    (with_changes(SMALL_LATTICE_JE, evolution={"tau": 64.0, "dt": 0.0638}), "evolution.tau"),
    (with_changes(SMALL_LATTICE_JE, evolution={"dt": 0.5}), "evolution.dt"),
    # more samples than a series holds, also where tau/dt overflows to inf
    (with_changes(SMALL_LATTICE_JE, kind="lattice-run", evolution={"dt": 5e-324}), "evolution.dt"),
    (with_changes(SMALL_LATTICE_JE, kind="lattice-run", evolution={"tau": 1e308}), "evolution.dt"),
    (with_changes(SMALL_LATTICE_JE, kind="lattice-run", evolution={"tau": 1e9}), "evolution.dt"),
]


@pytest.mark.parametrize(
    "raw,field",
    [
        *HORIZON_CASES,
        (with_changes(SMALL_LATTICE_JE, evolution={"bins": 22}), "evolution.bins"),
        (with_changes(LATTICE_TEMPERATURE, tolerances={"prob_cutoff": 1e-5}),
         "tolerances.prob_cutoff"),
        (with_changes(SMALL_OSC_JE, model={"type": "lattice"}), "model.type"),
        (with_changes(PRESETS["fig2"], sweep={"y_max": 2e6}), "sweep.y_max"),
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"dlam": 1e-200}},
         "quench.dlam"),
        (with_changes(SMALL_OSC_JE, temperature=5e-324), "temperature"),
        # only the stations before the last have a distribution to feature
        (with_changes(SMALL_LATTICE_JE, evolution={"featured_lambda": 4.0}),
         "evolution.featured_lambda"),
        (with_changes(SMALL_LATTICE_JE, evolution={"featured_lambda": 3.5}),
         "evolution.featured_lambda"),
        (with_changes(SMALL_OSC_JE, evolution={"featured_lambda": 3 * 0.6935}),
         "evolution.featured_lambda"),
        # the k lambda^2/4 offset swamps hbar*omega, and the grid around lambda/2 its spacing
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"lambda": 1e8, "dlam": 1.0}},
         "quench.lambda"),
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"lambda": 1e155, "dlam": 1.0}},
         "quench.lambda"),
        (with_changes(SMALL_OSC_JE, protocol={"lambda_start": 3e5}), "protocol.lambda_start"),
        # V (k - lambda)^2 overflows
        (with_changes(LATTICE_TEMPERATURE, quench={"lambda": 1e155}), "quench.lambda"),
        ({"kind": "lattice-run", "model": SMALL_LATTICE_JE["model"],
          "protocol": {"lambda_start": 1e160, "step": 1.0, "stations": 2}}, "protocol.lambda_start"),
        # V (k - center)^2 overflows at a chain end, also where V times (k - center) does not
        (with_changes(LATTICE_TEMPERATURE, model={"center": 1e300}), "model"),
        (with_changes(SMALL_LATTICE_JE, kind="lattice-run", model={"center": 1e300}), "model"),
        (with_changes(LATTICE_TEMPERATURE, model={"center": 1e155, "trap": 1e-320}), "model"),
        # a second quench that repeats the first, also where dlam + eps == dlam,
        # and the oscillator's -dlam, since y grows as dlam^2
        (with_changes(LATTICE_TEMPERATURE, quench={"eps": 0.0}), "quench.eps"),
        (with_changes(LATTICE_TEMPERATURE, quench={"eps": 1e-300}), "quench.eps"),
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"dlam": 1.0, "eps": 0.0}},
         "quench.eps"),
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"dlam": 1.0, "eps": -2.0}},
         "quench.eps"),
        # a pair whose dS is not zero but within the rounding of its entropies
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"dlam": 1.0, "eps": 1e-15}},
         "quench.eps"),
        # JSON integers past int64 in float fields, which numpy would take as objects
        ({"kind": "lattice-run", "model": {"type": "lattice"},
          "protocol": {"lambda_start": 10**30, "step": 1, "stations": 2}}, "model"),
        (with_changes(SMALL_OSC_JE, protocol={"step": 10**30}), "protocol.step"),
        (with_changes(LATTICE_TEMPERATURE, model={"hopping": 10**30}), "quench.eps"),
    ],
    ids=["tau-below-n2", "grid-ends-before-n2", "too-few-samples", "dt-overflows-the-count",
         "tau-overflows-the-count", "too-many-samples", "too-few-bins",
         "loose-cutoff", "model-kind-mismatch", "y-max-past-entropy-sums", "dlam-underflows-y",
         "beta-overflows", "featured-last-lattice-station", "featured-off-grid",
         "featured-last-oscillator-station", "oscillator-lambda-swamps-levels",
         "oscillator-lambda-overflows", "oscillator-lambda-past-grid", "lattice-lambda-overflows",
         "lattice-run-lambda-overflows", "lattice-center-overflows", "lattice-run-center-overflows",
         "lattice-center-overflows-squared", "lattice-eps-0", "lattice-eps-tiny", "oscillator-eps-0",
         "oscillator-minus-dlam", "oscillator-dS-below-rounding", "lattice-run-int-lambda-start",
         "oscillator-int-step", "lattice-int-hopping"],
)
def test_validate_rejects_model_limits(tmp_path, capsys, raw, field):
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert [v.split(":")[0] for v in violations] == [field]
    assert not (tmp_path / "o").exists()


SMALL_LATTICE = LatticeParams(**{k: v for k, v in SMALL_LATTICE_JE["model"].items() if k != "type"})


def lattice_run_with_grid(tau, dt):
    """SMALL_LATTICE_JE as a lattice-run on the grid of ``tau`` (None: the
    default horizon) and ``dt``."""
    raw = with_changes(SMALL_LATTICE_JE, kind="lattice-run", evolution={"dt": dt})
    if tau is None:
        del raw["evolution"]["tau"]
    else:
        raw["evolution"]["tau"] = tau
    return RunConfig.from_dict(raw)


def lattice_accepts_grid(tau, dt):
    """Whether the first lattice-run station of SMALL_LATTICE_JE evolves and
    averages on the grid of ``tau`` and ``dt``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = evolve_center_of_mass(SMALL_LATTICE, 2.0, 1.0, tau=tau, dt=dt)
            PositionDistribution.from_histogram(series.values, SMALL_LATTICE_JE["evolution"]["bins"])
    except ValueError:
        return False
    return True


def seeded_grids(count, seed=2102):
    """Horizons around and past N^2 = 64, or the default one, and steps that
    give about 10^3 samples, where the sample floor bites, or up to 2 x 10^4."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tau = [None, rng.uniform(56.0, 72.0), rng.uniform(64.0, 400.0)][rng.integers(3)]
        samples = rng.uniform(990.0, 1010.0) if rng.integers(2) else rng.uniform(500.0, 19000.0)
        yield tau, (128.0 if tau is None else tau) / samples


def test_validate_accepts_the_grids_the_lattice_accepts():
    """cli.validate's horizon and sample checks pass exactly when the lattice
    evolves a station and averages it, on seeded grids and on the edges."""
    edges = [(64.0, 0.0638), (64.0, 0.0639), (64.0, 0.064), (50.0, 0.04), (None, 0.5),
             (None, 0.1), (128.0, 0.1)]
    accepted = []
    for tau, dt in edges + list(seeded_grids(60)):
        accepted.append(validate(lattice_run_with_grid(tau, dt)) == [])
        assert accepted[-1] == lattice_accepts_grid(tau, dt), (tau, dt)
    assert any(accepted) and not all(accepted)


def test_validate_and_the_lattice_state_one_grid_rule():
    """Each horizon case fails in validate with the message the evolution
    raises, under ``evolution.``: lattice.series_samples states the rule once."""
    for raw, field in HORIZON_CASES:
        config = RunConfig.from_dict(raw)
        tau, dt = config.evolution["tau"], config.evolution["dt"]
        with pytest.raises(ValueError, match=f"^{field.split('.')[1]}: ") as caught:
            evolve_center_of_mass(SMALL_LATTICE, 2.0, 1.0, tau=tau, dt=dt)
        assert validate(config) == [f"evolution.{caught.value}"]


# grids of exactly 2^24 samples and of one more, set by tau and by dt
@pytest.mark.parametrize("tau, dt, over", [
    (MAX_SERIES_SAMPLES - 0.5, 1.0, False), (float(MAX_SERIES_SAMPLES), 1.0, True),
    (None, 8e-6, False), (None, 7e-6, True),
])
def test_validate_caps_the_grid_where_the_lattice_does(tau, dt, over):
    """At the sample cap only the grid length is compared: a grid of 2^24
    samples passes the rule and is never evolved, and one past it is rejected,
    in validate as in the lattice, before any work."""
    violations = validate(lattice_run_with_grid(tau, dt))
    if not over:
        assert series_samples(SMALL_LATTICE.n_sites, tau, dt) <= MAX_SERIES_SAMPLES
        assert violations == []
        return
    message = f"dt: tau/dt must give {MIN_SERIES_SAMPLES} to {MAX_SERIES_SAMPLES} samples"
    assert violations == [f"evolution.{message}"]
    with pytest.raises(ValueError, match=f"^{message}$"):
        series_samples(SMALL_LATTICE.n_sites, tau, dt)
    with pytest.raises(ValueError, match=f"^{message}$"):
        evolve_center_of_mass(SMALL_LATTICE, 2.0, 1.0, tau=tau, dt=dt)


# a trap strong enough to pair the levels around its center, which lies
# between two sites for lambda = 11; the Fermi level falls in the pair
STRONG_TRAP = {"type": "lattice", "n_sites": 20, "n_particles": 11, "trap": 0.5, "center": 10.0}


@pytest.mark.parametrize(
    "raw",
    [
        {"kind": "temperature", "model": STRONG_TRAP, "quench": {"lambda": 12.0, "dlam": 1.0}},
        {"kind": "lattice-run", "model": STRONG_TRAP,
         "protocol": {"lambda_start": 12.0, "step": 1.0, "stations": 2}},
        {"kind": "lattice-je", "model": STRONG_TRAP, "temperature": 0.2, "sampler": {"seed": 1},
         "protocol": {"lambda_start": 12.0, "step": 1.0, "stations": 3}},
    ],
    ids=["temperature", "lattice-run", "lattice-je"],
)
def test_degenerate_fermi_level_exits_2(tmp_path, capsys, raw):
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert len(violations) == 1
    assert violations[0].startswith("model: levels 10 and 11 of H(lambda=11) are degenerate")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, extra", [
    ("lattice-run", {}), ("lattice-je", {"temperature": 0.2, "sampler": {"seed": 1}}),
], ids=["lattice-run", "lattice-je"])
def test_a_later_degenerate_quench_exits_2_before_any_evolution(tmp_path, capsys, monkeypatch,
                                                                kind, extra):
    """From lambda_start 11 the second quench starts from lambda = 11, whose
    Fermi level is degenerate; the run rejects it before it evolves the first
    station or writes a file."""
    evolved = []
    monkeypatch.setattr(quenchwork.lattice, "evolve_center_of_mass",
                        lambda *args, **kwargs: evolved.append(args))
    raw = {"kind": kind, "model": STRONG_TRAP, **extra,
           "protocol": {"lambda_start": 11.0, "step": 1.0, "stations": 3}}
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert len(violations) == 1
    assert violations[0].startswith("model: levels 10 and 11 of H(lambda=11) are degenerate")
    assert not (tmp_path / "o").exists()
    assert evolved == []


@pytest.mark.parametrize("raw", [
    {"kind": "oscillator-je", "model": {"type": "oscillator"}, "temperature": 0.35,
     "sampler": {"seed": 1}},
    {"kind": "lattice-run", "model": {"type": "lattice"}},
], ids=["oscillator-je", "lattice-run"])
def test_a_protocol_past_the_float_range_exits_2_without_a_warning(tmp_path, capsys, raw):
    """Stations 1e308, inf, inf: the protocol's lambdas overflow silently and
    the model rejects the station it cannot build, with nothing on stderr."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {**raw, "protocol": {"lambda_start": 1e308, "step": 1e308, "stations": 3}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    violations = json.loads(out)["violations"]
    assert len(violations) == 1 and violations[0].startswith("protocol.")
    assert not (tmp_path / "o").exists()


def test_validate_rejects_non_numbers(tmp_path, capsys):
    raw = with_changes(
        SMALL_OSC_JE, temperature="hot", tolerances={"tail_tol": "tight"},
        protocol={"stations": "4"}, quench={"dlam": "1"},
    )
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert sorted(v.split(":")[0] for v in violations) == [
        "protocol.stations", "quench.dlam", "temperature", "tolerances.tail_tol",
    ]


@pytest.mark.parametrize(
    "raw,fields",
    [
        ({**SMALL_OSC_JE, "sampler": 3}, ["sampler"]),
        ([1, 2], ["config"]),
        (with_changes(SMALL_OSC_JE, model={"type": ["oscillator"]}), ["model.type"]),
        ({**SMALL_OSC_JE, "kind": ["oscillator-je"]}, ["kind"]),
        ({**SMALL_OSC_JE, "out_dir": 3}, ["out_dir"]),
        # a misspelled section, whose tail_tol a run would silently leave at its default
        ({"kind": "temperature", "quench": {"dlam": 1}, "tolerance": {"tail_tol": 1e-6}}, ["tolerance"]),
        (with_changes(SMALL_OSC_JE, sampler={"seed": -1}), ["sampler.seed"]),
        # more paths than the profile's buffers hold, and past any array numpy makes
        (with_changes(SMALL_OSC_JE, sampler={"n_paths": MAX_PATHS + 1}), ["sampler.n_paths"]),
        (with_changes(SMALL_OSC_JE, sampler={"n_paths": 10**12}), ["sampler.n_paths"]),
        (with_changes(SMALL_OSC_JE, sampler={"n_paths": 10**300}), ["sampler.n_paths"]),
        (with_changes(SMALL_LATTICE_JE, model={"n_sites": 8.5}), ["model"]),
        (with_changes(SMALL_OSC_JE, protocol={"step": 500}), ["protocol.step"]),
        # dlam**2 past the float range: y = inf, past the level cap
        ({"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"dlam": 1e200}},
         ["quench.dlam", "quench.eps"]),
        (with_changes(SMALL_OSC_JE, protocol={"step": 1e200}), ["protocol.step"]),
        # the same amplitudes on the lattice: H(lambda) is finite, H(lambda - dlam) overflows
        (with_changes(LATTICE_TEMPERATURE, quench={"dlam": 1e200}), ["quench.dlam", "quench.eps"]),
        (with_changes(LATTICE_TEMPERATURE, quench={"dlam": 1, "eps": 1e308}), ["quench.eps"]),
        ({"kind": "lattice-run", "model": SMALL_LATTICE_JE["model"],
          "protocol": {"lambda_start": 2.0, "step": 1e200, "stations": 2}}, ["protocol.step"]),
        # H(lambda_start) builds, so a later station's H(lambda) that overflows is the step's
        ({"kind": "lattice-je", "temperature": 0.2, "sampler": {"seed": 1},
          "protocol": {"lambda_start": 13, "step": 1e200, "stations": 3}}, ["protocol.step"]),
        ({"kind": "lattice-run", "protocol": {"lambda_start": 2, "step": 1e200, "stations": 3}},
         ["protocol.step"]),
        # one past each size cap, and past any array numpy makes
        *(
            (with_changes(base, **{section: {key: value}}), [field])
            for base, section, key, cap, field in [
                (PRESETS["fig2"], "sweep", "points", 4096, "sweep.points"),
                (SMALL_OSC_JE, "protocol", "stations", MAX_STATIONS, "protocol.stations"),
                ({**SMALL_LATTICE_JE, "kind": "lattice-run"}, "evolution", "bins",
                 MAX_HISTOGRAM_BINS, "evolution.bins"),
                (LATTICE_TEMPERATURE, "model", "n_sites", MAX_SITES, "model"),
            ]
            for value in (cap + 1, 10**15)
        ),
        (with_changes(SMALL_OSC_JE, tolerances={"tail_tol": 1e-3}), ["tolerances.tail_tol"]),
        (with_changes(SMALL_OSC_JE, sampler={"n_path": 300}, protocol={"stepz": 0.7},
                      evolution={"binz": 30}, tolerances={"tail_toll": 1e-3}),
         ["protocol.stepz", "sampler.n_path", "evolution.binz", "tolerances.tail_toll"]),
        *(
            (with_changes(base, model=model), ["model"])
            for base, model in [
                (LATTICE_TEMPERATURE, {"hopping": math.nan}),
                (LATTICE_TEMPERATURE, {"hopping": math.inf}),
                (PRESETS["fig2"], {"mass": math.nan}),
                (PRESETS["fig2"], {"stiffness": math.inf}),
                (SMALL_LATTICE_JE, {"trap": math.nan}),
                (SMALL_LATTICE_JE, {"center": math.inf}),
                (SMALL_LATTICE_JE, {"hopping": True}),
            ]
        ),
        # "false" used to be read as true: exit 0 with nothing printed
        ({**SMALL_OSC_JE, "quiet": "false"}, ["quiet"]),
        ({**SMALL_OSC_JE, "quiet": 0}, ["quiet"]),
    ],
    ids=["section-not-object", "config-not-object", "type-not-string", "kind-not-string",
         "out-dir-not-string", "misspelled-section", "negative-seed",
         "paths-past-cap", "paths-past-memory", "paths-past-numpy", "fractional-sites", "step-past-level-cap",
         "dlam-past-float-range", "step-past-float-range", "lattice-dlam-past-float-range",
         "lattice-eps-past-float-range", "lattice-run-step-past-float-range",
         "lattice-je-later-station-past-float-range", "lattice-run-later-station-past-float-range",
         "points-past-cap", "points-past-numpy",
         "stations-past-cap", "stations-past-numpy", "bins-past-cap", "bins-past-numpy",
         "sites-past-cap", "sites-past-memory", "loose-tail-tol", "misspelled-keys",
         "nan-hopping", "inf-hopping", "nan-mass", "inf-stiffness", "nan-trap", "inf-center",
         "bool-hopping", "quiet-string", "quiet-number"],
)
def test_validate_rejects_malformed_shapes(tmp_path, capsys, raw, fields):
    """``main`` and a library caller reject each config alike, and neither
    writes a file."""
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert [v.split(":")[0] for v in violations] == fields
    assert library_violations(raw, tmp_path / "o") == violations
    assert not (tmp_path / "o").exists()


def test_main_rejects_unreadable_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{")
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "validation_failed"
    assert out["violations"][0].startswith("config:")
    assert main(["--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("name", ["../escaped.csv", "sub/x.csv", "..", "", 3, "a\0b.csv"])
def test_validate_keeps_output_inside_out_dir(tmp_path, capsys, name):
    raw = copy.deepcopy(PRESETS["fig2"])
    raw["filenames"] = {"sweep": name}
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert violations == ["filenames.sweep: must be a file name without a directory part or NUL character"]
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_validate_rejects_a_nul_in_out_dir(tmp_path, capsys, monkeypatch):
    """An ``out_dir`` that holds a NUL exits 2 with a JSON error and makes
    no directory; it used to end in a traceback from mkdir.  ``validate``
    itself rejects it, and a non-boolean ``quiet``, for library callers."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**oscillator_temperature(), "out_dir": "x\0y"}))
    assert main(["--config", "cfg.json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "validation_failed", "violations": ["out_dir: must hold no NUL character"]}
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
    config = RunConfig.from_dict({**oscillator_temperature(), "out_dir": "x\0y", "quiet": "no"})
    assert validate(config) == ["out_dir: must hold no NUL character", "quiet: must be true or false"]


# file names that collide with another output of the run, and their violations
COLLIDING_NAMES = {
    "work-histogram-as-manifest": (
        with_changes(SMALL_OSC_JE, protocol={"stations": 3},
                     filenames={"profile": "work_hist.csv", "work_histogram": "manifest.json"}),
        ["filenames.work_histogram: 'manifest.json' is the name of another file the run writes"]),
    "featured-as-station": (
        with_changes(SMALL_LATTICE_JE, filenames={"featured_histogram": "hist_station_01.csv"}),
        ["filenames.featured_histogram: 'hist_station_01.csv' is the name of another file the run writes"]),
    "profile-as-work-histogram": (
        with_changes(SMALL_OSC_JE, filenames={"profile": "out.csv", "work_histogram": "out.csv"}),
        ["filenames.profile: 'out.csv' is the name of another file the run writes",
         "filenames.work_histogram: 'out.csv' is the name of another file the run writes"]),
    "temperature-as-ensemble": (
        with_changes(LATTICE_TEMPERATURE, filenames={"temperature": "ensemble_b.csv"}),
        ["filenames.temperature: 'ensemble_b.csv' is the name of another file the run writes"]),
    "sweep-as-series": (
        with_changes(PRESETS["fig2"], filenames={"sweep": "series_station_12.csv"}),
        ["filenames.sweep: 'series_station_12.csv' is the name of another file the run writes"]),
}


@pytest.mark.parametrize(("raw", "violations"), COLLIDING_NAMES.values(), ids=list(COLLIDING_NAMES))
def test_validate_rejects_file_names_that_collide(tmp_path, capsys, raw, violations):
    """A file name the kind writes must differ from its others and from the
    names the run gives its own files; the first two used to exit 0 with one
    output written over another."""
    code, got = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert got == violations
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


REFUSED_BY_VALIDATE = {
    "missing-seed": {**SMALL_LATTICE_JE, "sampler": {"n_paths": 2000}},
    "negative-temperature": with_changes(SMALL_OSC_JE, temperature=-1),
    **{name: raw for name, (raw, _) in COLLIDING_NAMES.items()},
}


@pytest.mark.parametrize("raw", REFUSED_BY_VALIDATE.values(), ids=list(REFUSED_BY_VALIDATE))
def test_run_refuses_what_validate_refuses(tmp_path, raw):
    """A library caller that calls ``run`` without ``validate`` gets
    ``validate``'s violations as Rejected, and no directory is made; ``run``
    used to write one output over another, or end in a KeyError or a bare
    ValueError."""
    config = config_with(raw, tmp_path / "o")
    violations = validate(config)
    assert violations
    with pytest.raises(Rejected) as caught:
        run(config)
    assert caught.value.args[0] == violations
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
def test_an_out_dir_that_is_a_file_exits_2(tmp_path, capsys, under):
    """An ``out_dir`` that is an existing file, or a path under one, exits 2
    with one ``out_dir`` violation before the first file; it used to end in a
    FileExistsError or NotADirectoryError."""
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    assert main(["--preset", "lattice-temperature", "--out", str(blocker / under)]) == 2
    printed = capsys.readouterr()
    assert printed.err == ""
    out = json.loads(printed.out)
    assert out["error"] == "validation_failed"
    assert [v.split(":")[0] for v in out["violations"]] == ["out_dir"]
    assert blocker.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("name", ["sub", "ensemble_a.csv", "manifest.json"])
def test_a_directory_by_a_name_the_run_writes_exits_2(tmp_path, capsys, name):
    """A directory in ``out_dir`` named like a file the run writes, a
    ``filenames`` value or one of the run's own names, is refused before the
    first file; the run used to write the ensembles and then end in an
    IsADirectoryError."""
    (tmp_path / "o" / name).mkdir(parents=True)
    raw = {"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"dlam": 1},
           "filenames": {"temperature": "sub"}}
    code, violations = main_violations(tmp_path, capsys, raw)
    assert code == 2
    assert violations == [f"out_dir: '{name}' is a directory where the run writes a file"]
    assert [p.name for p in (tmp_path / "o").iterdir()] == [name]
    assert not any((tmp_path / "o" / name).iterdir())


@pytest.mark.parametrize(
    "raw",
    [with_changes(SMALL_OSC_JE, filenames={"featured_histogram": "profile.csv"}),
     with_changes(LATTICE_TEMPERATURE, filenames={"profile": "manifest.json", "sweep": "temperature.csv"}),
     with_changes(PRESETS["fig2"], filenames={"sweep": "hist_station_1.csv"})],
    ids=["featured-unwritten", "profile-unwritten", "not-a-station-name"],
)
def test_validate_accepts_file_names_the_run_does_not_write(raw):
    assert validate(RunConfig.from_dict(raw)) == []


def test_the_kind_table_is_consistent():
    """Each row of KINDS names a model of _MODELS (or None for either), FIELDS
    sections and filenames keys; a config without model.type gets the row's
    model, and a kind with a model rejects the other one."""
    for kind, row in KINDS.items():
        assert row.model is None or row.model in quenchwork.cli._MODELS
        assert set(row.sections) <= set(FIELDS)
        assert set(row.outputs) <= set(FIELDS["filenames"])
        assert RunConfig.from_dict({"kind": kind}).model["type"] == (row.model or "oscillator")
        for other in set(quenchwork.cli._MODELS) - {row.model} if row.model else ():
            config = RunConfig.from_dict({"kind": kind, "model": {"type": other}})
            assert validate(config) == [f"model.type: '{other}' cannot run kind '{kind}'"]


@pytest.mark.filterwarnings("ignore:edge occupancy")
@pytest.mark.parametrize(
    "raw",
    [{"kind": "temperature", "model": {"type": "lattice"}, "quench": {"lambda": 15, "dlam": 2}},
     {"kind": "temperature", "model": {"type": "oscillator"}, "quench": {"lambda": 0.5, "dlam": 1.3}},
     {**SMALL_LATTICE_JE, "kind": "lattice-run"}, SMALL_LATTICE_JE, SMALL_OSC_JE],
    ids=["lattice-temperature", "oscillator-temperature", "lattice-run", "lattice-je",
         "oscillator-je"],
)
def test_the_run_makes_the_quenches_validation_checks(tmp_path, monkeypatch, raw):
    """Each ensemble, series and position density the run builds is of a
    quench that ``cli._quenches`` lists, in that order; a
    position density names its quench by (lambda, y)."""
    config = config_with(raw, tmp_path)
    assert validate(config) == []
    quenches = [(lam, dlam) for _, lam, _, dlam in quenchwork.cli._quenches(config)]
    if raw["kind"] == "oscillator-je":
        quenches = [(lam, y_parameter(OscillatorParams(), dlam)) for lam, dlam in quenches]
    made = []
    for module, name in [(quenchwork.lattice, "diagonal_ensemble"),
                         (quenchwork.oscillator, "poisson_ensemble"),
                         (quenchwork.lattice, "evolve_center_of_mass"),
                         (quenchwork.oscillator, "position_distribution")]:
        def record(params, lam, dlam, *args, _call=getattr(module, name), **kwargs):
            made.append((lam, dlam))
            return _call(params, lam, dlam, *args, **kwargs)
        monkeypatch.setattr(module, name, record)
    run(config)
    assert made == quenches
    assert len(made) >= 2


def test_an_unprefixed_value_error_of_a_station_propagates(tmp_path, monkeypatch):
    """A ValueError led by no ``lam:``, ``dlam:`` or ``y:`` is a bug, not a
    violation: ``run`` raises it as it is and writes no file."""
    def boom(*args, **kwargs):
        raise ValueError("boom")
    monkeypatch.setattr(OscillatorParams, "station", boom)
    with pytest.raises(ValueError, match="^boom$"):
        run(config_with(SMALL_OSC_JE, tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def oscillator_temperature(**quench):
    return {"kind": "temperature", "model": {"type": "oscillator"},
            "quench": {"lambda": 0.0, "dlam": 0.6935, **quench}}


def test_temperature_kind_renormalizes_a_loose_tail(tmp_path, capsys):
    """tail_tol 1e-7 leaves up to 1e-7 off the Poisson ensemble's sum; the
    ensemble is normalized and the manifest records the tail."""
    raw = with_changes(oscillator_temperature(), tolerances={"tail_tol": 1e-7})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert all(0.0 < d < 1e-7 for d in manifest["captured_deficit"])


def test_temperature_kind_defaults_a_null_lambda(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(oscillator_temperature(**{"lambda": None})))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert (tmp_path / "o" / "temperature.csv").read_text().splitlines()[1].startswith("15,")


@pytest.mark.parametrize(
    "quench,fields",
    [({"dlam": 39.0, "eps": 3.9}, ["quench.dlam", "quench.eps"]),
     ({"dlam": 30.0, "eps": 12.0}, ["quench.eps"])],
    ids=["dlam-past-level-cap", "dlam-plus-eps-past-level-cap"],
)
def test_temperature_kind_rejects_amplitudes_past_level_cap(tmp_path, capsys, quench, fields):
    code, violations = main_violations(tmp_path, capsys, oscillator_temperature(**quench))
    assert code == 2
    assert [v.split(":")[0] for v in violations] == fields
    assert not (tmp_path / "o").exists()


OSC = OscillatorParams()


def builds(*calls):
    """Whether every call returns without a ValueError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for call in calls:
                call()
    except ValueError:
        return False
    return True


def seeded_oscillator_protocols(count, seed=2201):
    """lambda_start 0 or +-10^U(-1, 6.5), steps from 0.01 to past the level
    cap, 2 to 5 stations and tail_tol from 1e-14 to 1e-6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        start = 0.0 if rng.integers(4) == 0 else rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 6.5)
        protocol = {"lambda_start": float(start), "step": float(10 ** rng.uniform(-2, 2.2)),
                    "stations": int(rng.integers(2, 6))}
        yield protocol, float(10 ** rng.uniform(-14, -6))


def main_accepts(tmp_path, raw):
    """Whether ``main`` runs ``raw`` (exit 0) rather than rejecting it (exit 2,
    leaving no output directory)."""
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(raw))
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "effective sample size")
        code = main(["--config", str(path), "--out", str(out), "--quiet"])
    assert code in (0, 2)
    assert out.exists() == (code == 0)
    return code == 0


def test_main_accepts_the_protocols_the_oscillator_accepts(tmp_path):
    """An oscillator-je config exits 2 exactly when the oscillator raises
    building the position distribution of a station lambda_1 to lambda_{s-1}."""
    accepted = []
    for protocol, tail_tol in seeded_oscillator_protocols(150):
        raw = with_changes(SMALL_OSC_JE, protocol=protocol, tolerances={"tail_tol": tail_tol},
                           sampler={"n_paths": 100})
        accepted.append(main_accepts(tmp_path, raw))
        proto = QuenchProtocol(**protocol)
        y = y_parameter(OSC, proto.step)
        model = builds(*(
            lambda lam=lam: position_distribution(OSC, lam, y, tail_tol=tail_tol)
            for lam in proto.lambdas[:-1]
        ))
        assert accepted[-1] == model, (protocol, tail_tol)
    assert any(accepted) and not all(accepted)


def seeded_oscillator_quenches(count, seed=2202):
    """dlam = 10^U(-170, 1.7), from where y underflows to 0 to past the level
    cap, with eps null or +-U(0, 0.5) dlam."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dlam = float(10 ** rng.uniform(-170, 1.7))
        yield dlam, None if rng.integers(2) else float(rng.uniform(-0.5, 0.5) * dlam)


def test_main_accepts_the_quenches_the_oscillator_accepts(tmp_path):
    """An oscillator temperature config exits 2 exactly when a Poisson
    ensemble fails to build or the closed-form temperature of dlam does not
    exist."""
    anchors = [(1e-200, None), (38.9, None), (39.0, None), (30.0, 12.0), (30.0, 8.0)]
    accepted = []
    for dlam, eps in anchors + list(seeded_oscillator_quenches(150)):
        accepted.append(main_accepts(tmp_path, oscillator_temperature(dlam=dlam, eps=eps)))
        dl_b = dlam + (0.1 * dlam if eps is None else eps)
        model = builds(
            lambda: poisson_ensemble(OSC, 0.0, dlam),
            lambda: poisson_ensemble(OSC, 0.0, dl_b),
            lambda: temperature_closed_form(OSC, y_parameter(OSC, dlam)),
        )
        assert accepted[-1] == model, (dlam, eps)
    assert any(accepted) and not all(accepted)


def test_sweep_to_large_y_finishes(tmp_path):
    """y_max 1000 used to overflow the entropy series and hang; the subprocess
    timeout turns a hang into a failure."""
    run_child(tmp_path, with_changes(PRESETS["fig2"], sweep={"y_max": 1000.0}), "o", timeout=60)
    rows = (tmp_path / "o" / "fig2.csv").read_text().splitlines()
    assert len(rows) == 122
    y, t, t_b, s, s_b = map(float, rows[-1].split(","))
    asymptote = 0.5 * math.log(2 * math.pi * math.e * y) - 1 / (12 * y)
    assert y == 1000.0 and s == pytest.approx(asymptote, abs=1e-6)


# small ranges keep every generated run well under a second
FUZZ_RANGES = {
    "sampler.n_paths": st.integers(1, 2000),
    "protocol.stations": st.integers(2, 4),
    "tolerances.max_states": st.integers(1, 2000),
    "sweep.points": st.integers(2, 20),
    "evolution.bins": st.integers(23, 123),
    "evolution.tau": st.none(),  # the default horizon
    "evolution.dt": st.floats(0.005, 0.2),
}
FUZZ_MODELS = {
    "oscillator": st.fixed_dictionaries(
        {"type": st.just("oscillator")}, optional={"stiffness": st.floats(0.1, 2.0)}
    ),
    "lattice": st.integers(2, 10).flatmap(lambda n: st.fixed_dictionaries(
        {"type": st.just("lattice"), "n_sites": st.just(n), "n_particles": st.integers(1, n)},
        optional={"trap": st.floats(0.0, 0.2), "center": st.floats(-5.0, 15.0)},
    )),
}
# the float fields of each model, which any_config now and then sets to a non-number
FUZZ_MODEL_FLOATS = {
    mtype: [f.name for f in dataclasses.fields(cls) if isinstance(f.default, float)]
    for mtype, cls in (("oscillator", OscillatorParams), ("lattice", LatticeParams))
}


def fuzz_values(name, spec):
    """Values of one FIELDS row, inside its type and bound."""
    if name in FUZZ_RANGES:
        return FUZZ_RANGES[name]
    if spec.type is str:
        return st.sampled_from([spec.default, "other.csv"])
    if spec.type is int:
        return st.integers(spec.bound, spec.bound + 100)
    low, high = spec.bound or (-50.0, 50.0)
    return st.floats(low, min(high, 50.0), exclude_min=spec.bound is not None)


@st.composite
def any_config(draw, kind):
    """A config of ``kind`` built from the FIELDS rows: the required fields of
    the kind's sections always, every other field or not, and now and then
    one unknown key, one value of the wrong type or one model float field
    that is NaN, infinite, a bool or an integer past int64."""
    mtype = KINDS[kind].model or draw(st.sampled_from(list(FUZZ_MODELS)))
    raw = {"kind": kind, "model": draw(FUZZ_MODELS[mtype])}
    if draw(st.integers(0, 2)) == 2:  # one model float field that is not a finite float
        key = draw(st.sampled_from(FUZZ_MODEL_FLOATS[mtype]))
        raw["model"][key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, True, 10**30]))
    for section, specs in FIELDS.items():
        values = {}
        for key, spec in specs.items():
            name = f"{section}.{key}" if section else key
            if spec.default is REQUIRED and section in KINDS[kind].sections:
                values[key] = draw(fuzz_values(name, spec))
            elif (value := draw(st.none() | fuzz_values(name, spec))) is not None:
                values[key] = value
        if section is None:
            raw.update(values)
        elif values:
            raw[section] = values
    now_and_then = st.integers(0, 4).map(lambda i: i == 4)
    if draw(now_and_then):
        section, key = draw(st.sampled_from([(s, k) for s in FIELDS for k in FIELDS[s]]))
        target = raw.setdefault(section, {}) if section else raw
        target[key] = 3 if FIELDS[section][key].type is str else "3"
    if draw(now_and_then):
        section = draw(st.sampled_from(list(FIELDS)))
        (raw.setdefault(section, {}) if section else raw)["typo"] = 1
    return raw


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_exits_cleanly(tmp_path, kind, data):
    """Any config of any kind runs (exit 0) and writes no NaN, is rejected
    (exit 2) or fails to converge (exit 3); nothing raises."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data.draw(any_config(kind))))
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(path), "--out", str(out), "--quiet"])
    assert code in (0, 2, 3)
    assert code != 0 or not any("nan" in csv.read_text() for csv in out.glob("*.csv"))
