"""Tests of the benchmark itself:  python3 -m pytest bench -q

Real outputs of every workload are made once (about 15 s), then corrupted
copies must each be rejected by the output checks.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quenchwork import cli  # noqa: E402
from tracing import Span  # noqa: E402


# -- self-time arithmetic --------------------------------------------------

def test_self_times_nested_spans():
    spans = [
        Span("cli.run", 0.0, 10.0, None, "p"),
        Span("jarzynski.a", 1.0, 4.0, 0, "p"),
        Span("distributions.b", 2.0, 3.0, 1, "p"),
        Span("lattice.c", 5.0, 9.0, 0, "p"),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times of a tree add up to its root's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("cli.run", 0.0, 10.0, None, "p"),
        Span("lattice.a", 1.0, 4.0, 0, "p"),
        Span("lattice.b", 3.0, 6.0, 0, "p"),
        Span("lattice.c", 9.0, 12.0, 0, "p"),
    ]
    # covered: [1, 6] and [9, 10] clipped to the parent
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_sums_and_ratios():
    spans = [
        Span("cli.run", 0.0, 10.0, None, "p"),
        Span("jarzynski.profile_from_distributions", 1.0, 5.0, 0, "p"),
        Span("distributions.sample", 2.0, 3.0, 1, "p"),
        Span("distributions.sample", 3.5, 4.0, 1, "p"),
        Span("jarzynski.sample_work_paths", 6.0, 8.0, 0, "p"),
        Span("distributions.sample", 6.5, 7.5, 4, "p"),
    ]
    counts = {"distributions.sample.draws": 400, "lattice.diagonal_ensemble.states": 0}
    m = tracing.layer_metrics(spans, counts, needed_draws=200)
    assert m["distributions.sample.s"] == pytest.approx(2.5)
    assert m["distributions.sample.useful_ratio"] == pytest.approx(0.5)
    assert m["jarzynski.profile_from_distributions.self_s"] == pytest.approx(2.5)
    assert m["jarzynski.sample_work_paths.calls"] == 1
    assert m["jarzynski.self_s"] == pytest.approx(3.5)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["lattice.diagonal_ensemble.useful_ratio"] == 0.0
    layers = {name.split(".", 1)[0] for name, _ in tracing.LAYER_METRICS} - {"trace"}
    total = sum(m[f"{layer}.self_s"] for layer in layers)
    assert total == pytest.approx(m["cli.run.s"])


# -- the traced run patches calls wherever they are looked up -----------------

def test_tracer_catches_calls_through_imported_names(tmp_path):
    tracer = tracing.Tracer("t")
    original = cli.write_ensemble
    tracer.install()
    try:
        for kind, extra in (
            ("temperature", {"quench": {"lambda": 1.0, "dlam": 1.0}}),
            ("oscillator-je", {
                "protocol": {"lambda_start": 0.0, "step": 1.0, "stations": 3},
                "temperature": 1.0,
                "sampler": {"n_paths": 1000, "seed": 3},
            }),
        ):
            raw = {"kind": kind, "model": {"type": "oscillator"}, "out_dir": str(tmp_path / kind), **extra}
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = tracer.showwarning
                cli.run(cli.RunConfig.from_dict(raw))
    finally:
        tracer.uninstall()
    assert cli.write_ensemble is original
    names = [s.name for s in tracer.spans]
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert names.count("cli.run") == 2
    assert parents["ensembles.write_ensemble"] == "cli.run"
    assert parents["ensembles.temperature_from_pair"] == "cli.run"
    assert parents["ensembles.entropy"] == "ensembles.temperature_from_pair"
    assert parents["distributions.sample"] in ("jarzynski.profile_from_distributions",
                                               "jarzynski.sample_work_paths")
    assert "jarzynski.free_energy_estimate" in names
    counts = tracer.finish(str(tmp_path))
    assert counts["distributions.sample.draws"] == 2 * 2 * 1000
    assert counts["ensembles.write_ensemble.bytes"] > 0
    assert counts["cli.files_written"] == sum(p.is_file() for p in tmp_path.rglob("*"))


# -- configs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_configs_validate(workload):
    for seed in (1, 7):
        raws = workloads.raw_configs(workload, seed)
        assert raws
        for raw in raws.values():
            config = cli.RunConfig.from_dict(raw)
            assert cli.validate(config) == []
            if config.kind in ("oscillator-je", "lattice-je"):
                assert config.sampler["seed"] == seed


def test_needed_draws_counts_steps_of_sampling_configs():
    raws = workloads.raw_configs("oscillator-profiles", 1)
    assert workloads.needed_draws(raws) == 2 * 100_000 * 10


def test_benchmark_json_matches_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert set(checks._CHECKS) == set(workloads.WORKLOADS)


# -- output checks --------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one pass of every workload, seed 1."""
    made = {}
    for workload in workloads.WORKLOADS:
        out = tmp_path_factory.mktemp(workload)
        raws = workloads.raw_configs(workload, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, raw in raws.items():
                cli.run(cli.RunConfig.from_dict({**raw, "out_dir": str(out / name)}))
        made[workload] = (out, raws)
    return made


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = edit(header, [[float(v) for v in r] for r in rows])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _set(column: str, row: int, fn):
    def edit(header, rows):
        i = header.index(column)
        rows[row][i] = fn(rows[row][i])
        return rows
    return edit


def _shift_all_but_first(column: str, delta: float):
    def edit(header, rows):
        i = header.index(column)
        for r in rows[1:]:
            r[i] += delta
        return rows
    return edit


def _flatten(column: str):
    def edit(header, rows):
        i = header.index(column)
        for r in rows:
            r[i] = 1.0
        return rows
    return edit


def _drop_rows(n: int):
    return lambda header, rows: rows[:-n]


def _set_deficit(value: float):
    def edit(path: Path):
        manifest = json.loads(path.read_text())
        manifest["captured_deficit"][0] = value
        path.write_text(json.dumps(manifest))
    return edit


def _swap_temperatures(out: Path):
    a, b = out / "dlam2-3" / "temperature.csv", out / "dlam2-4" / "temperature.csv"
    ta, tb = a.read_text(), b.read_text()
    a.write_text(tb)
    b.write_text(ta)


CORRUPTIONS = [
    ("lattice-profile", "fig4/fig4d.csv", _set("dF_JE", -1, lambda v: v * 1.2)),
    ("lattice-profile", "fig4/fig4d.csv", _set("ESS", 3, lambda v: 5.0)),
    ("lattice-profile", "fig4/fig4c.csv", _flatten("f")),
    ("lattice-profile", "fig4/fig4c.csv", None),
    ("lattice-series", "series/series_station_01.csv", _set("x", 0, lambda v: v + 1e-6)),
    ("lattice-series", "series/series_station_01.csv", _shift_all_but_first("x", 0.02)),
    ("lattice-series", "series/series_station_01.csv", _drop_rows(10)),
    ("oscillator-profiles", "fig3b/fig3b.csv", _set("dF_JE", 5, lambda v: v + 1.0)),
    ("oscillator-profiles", "fig3b/fig3b.csv", _set("ESS", 10, lambda v: 9.0)),
    ("oscillator-profiles", "fig3d/fig3d.csv", _set("dF_JE", -1, lambda v: v - 10.0)),
    ("oscillator-profiles", "fig2/fig2.csv", _drop_rows(1)),
    ("lattice-temperature-sweep", "dlam2-1/temperature.csv", _set("T", 0, lambda v: v * 1.02)),
    ("lattice-temperature-sweep", "dlam2-2/manifest.json", _set_deficit(1e-5)),
    ("lattice-temperature-sweep", "", _swap_temperatures),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_real_outputs(outputs, workload):
    out, raws = outputs[workload]
    assert checks.check_pass(workload, out, raws) == []


@pytest.mark.parametrize("workload,target,edit", CORRUPTIONS,
                         ids=[f"{w}:{t or 'order'}:{i}" for i, (w, t, _) in enumerate(CORRUPTIONS)])
def test_checks_reject_corrupted_output(outputs, tmp_path, workload, target, edit):
    src, raws = outputs[workload]
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = out / target
    if edit is None:
        path.unlink()
    elif target.endswith(".csv"):
        _edit_csv(path, edit)
    elif target:
        edit(path)
    else:
        edit(out)
    assert checks.check_pass(workload, out, raws)


def test_output_digest_ignores_wall_time_only(outputs, tmp_path):
    src, _ = outputs["oscillator-profiles"]
    out = tmp_path / "out"
    shutil.copytree(src, out)
    before = run.output_digest(out)
    manifest = out / "fig2" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["wall_time_s"] += 1.0
    manifest.write_text(json.dumps(data, indent=2))
    assert run.output_digest(out) == before
    with open(out / "fig2" / "fig2.csv", "a") as fh:
        fh.write("\n")
    assert run.output_digest(out) != before
