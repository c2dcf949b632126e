#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload {fig9,fuzz-dual,recheck,service}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The launcher starts every workload
process with ``PYTHONHASHSEED`` fixed and ``src`` on the path, measures
set-up from just before each spawn, checks the program's outputs, and
prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced round.  The
line before it (``perfbench detail: {...}``) carries work counts,
per-program times and the reference-loop timings.  The exit status is
0 only when every output was correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.common import clean_env, scale_factor  # noqa: E402

WORKLOADS = ("fig9", "fuzz-dual", "recheck", "service")

#: Fixed for every workload process, so set and dict iteration orders
#: that depend on string hashes repeat from run to run.
PYTHONHASHSEED = "0"

#: Set-up is measured this many times per untraced run (the workload
#: process itself and set-up-only processes before it) and the median
#: reported.  recheck measures it twice: its set-up is about ten seconds
#: of cold checks, and a third sample would make every run that much
#: longer.
SETUP_SAMPLES = {"fig9": 3, "fuzz-dual": 3, "recheck": 2, "service": 3}

#: No workload process may outlive this (seconds); one that does gets
#: ``STOP_S`` seconds after SIGTERM to stop what it started.
PROCESS_LIMIT_S = 160.0
STOP_S = 10.0


def _worker(args, setup_only: bool, deadline: float) -> dict:
    """Run one workload process; returns its JSON outcome."""
    env = clean_env(PYTHONHASHSEED=PYTHONHASHSEED)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned_at = time.monotonic()
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spawned-at", repr(spawned_at)]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # SIGTERM first: the worker then stops the fleets it started.
        os.killpg(process.pid, signal.SIGTERM)
        try:
            process.communicate(timeout=STOP_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
        raise SystemExit("perfbench: %s worker exceeded %.0fs"
                         % (args.workload, PROCESS_LIMIT_S))
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s worker exited %s"
                         % (args.workload, process.returncode))
    return json.loads(lines[-1])


def scaled_setup_s(outcome: dict) -> float:
    """A process's set-up time scaled to the host's nominal speed by the
    reference samples it took after set-up, if its workload scales."""
    if not outcome["scaled"]:
        return outcome["setup_s"]
    return outcome["setup_s"] * scale_factor(outcome["refs"])


def summarize(outcome: dict, setups, trace: bool):
    """(detail, result line) from a workload process's outcome and the
    set-up-only outcomes of the run."""
    setups = list(setups) + [outcome]
    if trace:
        metrics = outcome["layers"]
    else:
        metrics = dict(outcome["metrics"])
        metrics["setup_s"] = [
            statistics.median(scaled_setup_s(o) for o in setups), "s"]
    detail = dict(outcome["detail"],
                  raw_setup_s=[o["setup_s"] for o in setups],
                  problems=outcome["problems"])
    result = {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no checker sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + PROCESS_LIMIT_S
    # A traced run reports no set-up time.
    setups = [_worker(args, True, deadline)
              for _ in range(0 if args.trace
                            else SETUP_SAMPLES[args.workload] - 1)]
    outcome = _worker(args, False, deadline)

    detail, result = summarize(outcome, setups, bool(args.trace))
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    for problem in outcome["problems"]:
        print("perfbench: INCORRECT: " + problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
