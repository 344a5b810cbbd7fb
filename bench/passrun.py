"""One benchmark pass in a fresh interpreter.

    python3 bench/passrun.py WORKLOAD SEED OUT_DIR TRACE PASS_ID

Imports quenchwork from ``src/`` of the checkout, builds and validates the
workload's configs, then runs each through ``cli.run`` with its output under
OUT_DIR.  The last line of standard output is a JSON record with monotonic
timestamps (comparable with the parent's, since CLOCK_MONOTONIC is
system-wide), peak resident memory and, when TRACE is 1, the pass's spans
and counts.  Exit code 2 means the configs did not validate.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, out_dir, trace, pass_id = argv
    import quenchwork
    from quenchwork import cli

    if not Path(quenchwork.__file__).resolve().is_relative_to(ROOT / "src"):
        print(json.dumps({"error": f"quenchwork imported from {quenchwork.__file__}"}))
        return 2
    import workloads

    configs = []
    for name, raw in workloads.raw_configs(workload, int(seed)).items():
        raw.update(out_dir=str(Path(out_dir) / name), quiet=True)
        config = cli.RunConfig.from_dict(raw)
        violations = cli.validate(config)
        if violations:
            print(json.dumps({"error": "validation_failed", "config": name, "violations": violations}))
            return 2
        configs.append(config)

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(pass_id)
        tracer.install()
    t_ready = time.monotonic()
    with warnings.catch_warnings():
        if tracer is not None:
            warnings.simplefilter("always")
            warnings.showwarning = tracer.showwarning
        for config in configs:
            cli.run(config)
    t_done = time.monotonic()

    record = {
        "t_ready": t_ready,
        "t_done": t_done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["counts"] = tracer.finish(out_dir)
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
