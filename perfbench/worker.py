"""One workload process: ``python -m perfbench.worker``.

Started by ``perfbench/run.py`` (never by hand) with ``PYTHONHASHSEED``
fixed and ``src`` on the path.  Runs the named workload and prints one
JSON line with its outcome; the launcher turns that into the
benchmark's result line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import sys

from perfbench.common import Context, Outcome, cold_reset, host_ref
from perfbench.layers import SERVICE_METRICS

#: Workload name -> module implementing ``run(ctx, out)``.
WORKLOADS = {
    "fig9": "perfbench.fig9",
    "fuzz-dual": "perfbench.fuzz_dual",
    "recheck": "perfbench.recheck",
    "service": "perfbench.service",
}


def _stop(signum, frame) -> None:
    # Unwind, so every ``finally`` stops what the workload started.
    raise SystemExit("perfbench: worker stopped by signal %d" % signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  spawned_at=args.spawned_at,
                  setup_only=args.setup_only, root=root)
    module = importlib.import_module(WORKLOADS[args.workload])
    out = Outcome()
    try:
        module.run(ctx, out)
        if not out.refs:
            # A set-up-only process samples the host once set-up is
            # done, on emptied tables as a workload's meter does.
            if "repro.logic.formula" in sys.modules:
                cold_reset()
            out.refs = host_ref()
        refs = out.refs
    finally:
        ctx.cleanup()
    if args.setup_only:
        print(json.dumps({"setup_s": ctx.setup_s, "refs": refs,
                          "scaled": out.scaled}))
        return 0
    out.detail["host.ref_s"] = statistics.median(refs)
    out.detail["host.ref_s.range"] = [min(refs), max(refs)]
    if ctx.trace:
        out.layers["host.ref_s"] = (statistics.median(refs), "s")
        for name, unit in SERVICE_METRICS:
            out.layers.setdefault(name, (0.0, unit))
    print(json.dumps({
        "setup_s": ctx.setup_s,
        "refs": refs,
        "scaled": out.scaled,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "metrics": {name: list(v) for name, v in out.metrics.items()},
        "layers": {name: list(v) for name, v in out.layers.items()},
        "detail": out.detail,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
