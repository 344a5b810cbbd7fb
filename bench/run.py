"""quenchwork benchmark: end-to-end and per-layer metrics of four workloads.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each pass runs one workload's configs through ``cli.run`` in a fresh
interpreter (``passrun.py``), one pass at a time, so no in-process cache
carries work from one pass to the next.  Passes repeat until the next one
would end after ``--seconds`` (at least three untraced passes, or two
untraced and two traced with ``--trace 1``).  Every pass's outputs are
checked, and every pass must write the same bytes as the first pass of the
run.  With ``--trace 1`` untraced and traced passes alternate: the untraced
ones give the tracing overhead, the traced ones the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, the run
record and the spans go to ``.bench_work/`` in the checkout.  The exit code
is 2, with no result printed, when the checkout has no quenchwork sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
MIN_UNTRACED = 3
MIN_TRACED = 2
# one workload's passes must end well inside the 180 s a run may take
WORKLOAD_LIMIT_S = 160.0


def output_digest(out: Path) -> str:
    """Hash of every file a pass wrote; the manifest's wall time is left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        name = str(path.relative_to(out)).encode()
        h.update(b"%d:%s%d:%s" % (len(name), name, len(data), data))
    return h.hexdigest()


def run_pass(workload: str, seed: int, out: Path, traced: bool, pass_id: str, timeout: float) -> dict:
    """One pass in a fresh interpreter; a failed pass has problems and no timings."""
    cmd = [sys.executable, str(BENCH / "passrun.py"), workload, str(seed), str(out),
           "1" if traced else "0", pass_id]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "wall": time.monotonic() - t0,
                "problems": [f"timed out after {timeout:.0f} s"]}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    rec = {"traced": traced, "wall": time.monotonic() - t0, "problems": []}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (lines[-1:] or stderr.strip().splitlines()[-1:] or [""])[0]
        rec["problems"].append(f"exit code {proc.returncode}: {tail}")
        return rec
    child = json.loads(lines[-1])
    rec.update(
        setup_s=child["t_ready"] - t0,
        run_s=child["t_done"] - child["t_ready"],
        peak_rss_mb=child["maxrss_kb"] / 1024.0,
        spans=child.get("spans"),
        counts=child.get("counts"),
    )
    return rec


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    raws = workloads.raw_configs(workload, seed)
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    passes: list[dict] = []
    reference = None
    start = time.monotonic()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        out = wdir / f"pass-{index:03d}"
        timeout = max(5.0, start + WORKLOAD_LIMIT_S - time.monotonic())
        rec = run_pass(workload, seed, out, traced, f"{workload}/{seed}/{index}", timeout)
        if not rec["problems"]:
            rec["problems"] = checks.check_pass(workload, out, raws)
            digest = output_digest(out)
            reference = reference or digest
            if digest != reference:
                rec["problems"].append("outputs differ from the first pass with the same seed")
        shutil.rmtree(out, ignore_errors=True)
        passes.append(rec)

        elapsed = time.monotonic() - start
        n_untraced = sum(not p["traced"] for p in passes)
        n_traced = len(passes) - n_untraced
        enough = n_untraced >= MIN_UNTRACED if not trace else min(n_untraced, n_traced) >= MIN_TRACED
        if elapsed + rec["wall"] > WORKLOAD_LIMIT_S or (enough and elapsed + rec["wall"] > seconds):
            break

    good = [p for p in passes if not p["problems"]]
    untraced = [p for p in good if not p["traced"]]
    metrics = {}
    if untraced:
        for name, _ in END_TO_END:
            metrics[name] = statistics.median(p[name] for p in untraced)
    traced_good = [p for p in good if p["traced"]]
    layers = {}
    spans = []
    if traced_good:
        needed = workloads.needed_draws(raws)
        per_pass = []
        for p in traced_good:
            pass_spans = [tracing.Span(*s) for s in p["spans"]]
            spans.extend(pass_spans)
            m = tracing.layer_metrics(pass_spans, p["counts"], needed)
            m["trace.run_s"] = p["run_s"]
            m["trace.self_sum_s"] = sum(tracing.self_times(pass_spans))
            per_pass.append(m)
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        if "run_s" in metrics:
            layers["trace.overhead_s"] = layers["trace.run_s"] - metrics["run_s"]
    result = {
        "workload": workload,
        "seed": seed,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "counts")} for p in passes],
        "metrics": metrics,
        "layers": layers,
    }
    (wdir / "run.json").write_text(json.dumps(result, indent=1) + "\n")
    (wdir / "spans.json").write_text(json.dumps([s._asdict() for s in spans]) + "\n")
    return result


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.split()[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def _terminate(signum, frame):
    # unwinds through run_pass, which stops the running pass
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quenchwork" / "__init__.py").is_file():
        print(f"no quenchwork sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    env = environment()
    print("environment: " + json.dumps(env))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END) | dict(tracing.LAYER_METRICS)
    attempted = failed = 0
    reported = {}
    for workload in names:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        passes = res["passes"]
        bad = [p for p in passes if p["problems"]]
        attempted += len(passes)
        failed += len(bad)
        n_traced = sum(p["traced"] for p in passes)
        print(f"\n{workload} (seed {args.seed}): {len(passes)} passes, "
              f"{len(passes) - n_traced} untraced and {n_traced} traced, {len(bad)} failed")
        for i, p in enumerate(passes):
            for problem in p["problems"]:
                print(f"  pass {i} FAILED: {problem}")
        print(f"  error_rate = {len(bad) / len(passes):.4g} (failed / attempted passes)")
        timed = [p["run_s"] for p in passes if not p["problems"] and not p["traced"]]
        for name, value in res["metrics"].items():
            extra = f"  (median of {len(timed)} passes, max run_s {max(timed):.4f})" if name == "run_s" else ""
            print(f"  {name} = {value:.6g} {units[name]}{extra}")
        for name, value in res["layers"].items():
            print(f"  {name} = {value:.6g} {units[name]}")
        if "trace.self_sum_s" in res["layers"]:
            lay = res["layers"]
            print(f"  layer self times sum to {lay['trace.self_sum_s']:.4f} s "
                  f"against traced run_s {lay['trace.run_s']:.4f} s")
        chosen = res["layers"] if args.trace else res["metrics"]
        wanted = [n for n, _ in tracing.LAYER_METRICS] if args.trace else [n for n, _ in END_TO_END]
        prefix = "" if len(names) == 1 else f"{workload}."
        for name in wanted:
            if name in chosen:
                reported[prefix + name] = {"value": chosen[name], "unit": units[name]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
