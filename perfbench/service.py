"""Workload ``service``: ``repro serve`` under a closed loop.

The run is made of whole rounds.  A round boots a fleet of ``nproc``
shards (one checker worker each) on a fresh persistent store, waits
until ``/healthz`` reports every shard healthy, checks each base
program once (``warm_up``), and sends the round's ``ROUND_DRAWS``
draws from ``CLIENTS`` client thread(s) of this one process, each
sending its next draw only when the previous one is answered.  It then
reads the fleet's ``/metrics`` and ends with a SIGTERM drain.  A fleet
that has not exited ``DRAIN_S`` seconds later is killed, with its whole
process group, and the detail line says so.  The drain is not counted
as an operation: whether a fleet wedges in it changes from round to
round (see README).  Set-up is the imports and the first round's fleet
boot; later rounds boot their fleet outside the timed part.

Every round has the same make-up, in an order drawn from the workload
seed: ``SINGLES`` draws of one ``/v1/check`` request and ``BATCHES``
draws of ``BATCH_ITEMS`` items on ``/v1/batch``.  Of the items,

* ``RESUBMIT`` are exact resubmissions of an item at least
  ``RESUBMIT_GAP`` items earlier in the round (dedup: the verdict
  cache and in-flight coalescing);
* ``NEAR_DUPLICATE`` are near-duplicates: a base program with a new
  ``timeout_s``, a verdict-neutral option, so the dedup key is new but
  the store can replay the program's function units;
* the rest are fresh programs: a rendering of the summation loop
  (SPARC, RV32I or the off-by-one SPARC one) whose accumulator starts
  at a constant not used before in the round, so nothing replays.

The base programs are the fast Figure-9 programs (SPARC) plus the RV32I
and the off-by-one renderings from ``repro.service.loadtest``; every
response must match its program's hand-written expectation.
"""

from __future__ import annotations

import glob
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.common import (
    Context, Expectation, Outcome, clean_env, gmean, host_ref_once,
    payload_problems, percentile, scale_factor,
)
from perfbench.layers import layer_metrics

#: Seconds a fleet may take to exit after SIGTERM before it is killed.
#: A fleet that drains cleanly exits within its shards' 0.5 s accept
#: poll.
DRAIN_S = 2.0
#: Make-up of every round.  The duplicate share (60%) and the batch size
#: (8) are those of the repository's own mixed load test
#: (``repro.service.loadtest.default_configs``, ``shards-N-mixed``),
#: whose figures ``BENCH_service.json`` records.  The rest is chosen:
#: that load test sends every request through ``/v1/batch`` and makes
#: its other 40% near-duplicates only; here half of the requests go
#: singly through ``/v1/check`` (the request path without batch
#: bookkeeping), and the 40% are split evenly between near-duplicates
#: (unit and pipeline replay from the store) and fresh programs (the
#: whole checker, as a first submission has it).
SINGLES, BATCHES, BATCH_ITEMS = 320, 40, 8
ROUND_DRAWS = SINGLES + BATCHES
ROUND_ITEMS = SINGLES + BATCHES * BATCH_ITEMS
RESUBMIT = ROUND_ITEMS * 6 // 10
NEAR_DUPLICATE = ROUND_ITEMS * 2 // 10
FRESH = ROUND_ITEMS - RESUBMIT - NEAR_DUPLICATE
RESUBMIT_GAP = 16
#: Client threads.  With one request in flight at a time, the shards do
#: not write to the shared store at once (see README, "Known faults"),
#: and do not compete for the two cores with each other.
CLIENTS = 1
#: Draws between two reference-loop samples.
REF_EVERY = 10

#: The off-by-one rendering reads one element past the array at
#: instruction 7 (``ld [%o2+%g2],%g2`` with ``%g3 == n``).
BUGGY_EXPECTATION = Expectation(safe=False, indices=(7,),
                                categories=("array-bounds",))

#: Summation-loop renderings for fresh programs: name -> (text to
#: replace, replacement template).  The accumulator's initial value only
#: feeds the loop guard and the result, never an address.
FRESH_EDITS = {
    "sum-sparc": ("2: clr %o0", "2: mov {k},%o0"),
    "buggy-sparc": ("2: clr %o0", "2: mov {k},%o0"),
    "sum-riscv": ("2: li a0,0", "2: li a0,{k}"),
}


@dataclass(frozen=True)
class Request:
    """One item sent to the fleet, and the verdict it must get."""

    name: str
    code: str
    spec: str
    arch: str
    expect: Expectation
    kind: str = "base"
    timeout_s: Optional[float] = None

    def body(self) -> dict:
        body = {"code": self.code, "spec": self.spec, "arch": self.arch,
                "name": self.name}
        if self.timeout_s is not None:
            body["options"] = {"timeout_s": self.timeout_s}
        return body


def base_programs() -> List[Request]:
    from repro.programs import fast_programs
    from repro.service.loadtest import PROGRAMS
    bases = [Request(p.name, p.source, p.spec_text, "sparc",
                     Expectation.of(p))
             for p in fast_programs()]
    expectations = {"sum-sparc": Expectation(safe=True),
                    "sum-riscv": Expectation(safe=True),
                    "buggy-sparc": BUGGY_EXPECTATION}
    for entry in PROGRAMS:
        bases.append(Request(entry["name"], entry["code"], entry["spec"],
                             entry["arch"], expectations[entry["name"]]))
    return bases


def round_draws(seed: int, index: int,
                bases: List[Request]) -> List[List[Request]]:
    """The draws of round *index*: ``ROUND_DRAWS`` lists of requests
    (one for ``/v1/check``, ``BATCH_ITEMS`` for ``/v1/batch``)."""
    rng = random.Random(seed * 1000 + index)
    # Every base program is near-duplicated, and every family made
    # fresh, equally often in a round, so each class of requests has
    # the same make-up in every round.
    near = _spread(bases, NEAR_DUPLICATE, rng)
    fresh = _spread([b for b in bases if b.name in FRESH_EDITS], FRESH, rng)
    kinds = (["resubmit"] * RESUBMIT + ["near-duplicate"] * NEAR_DUPLICATE
             + ["fresh"] * FRESH)
    rng.shuffle(kinds)
    # A resubmission repeats an item at least RESUBMIT_GAP items back,
    # whose answer is then (nearly always) in the verdict cache.
    for number in range(RESUBMIT_GAP):
        if kinds[number] == "resubmit":
            other = kinds.index("fresh", RESUBMIT_GAP)
            kinds[number], kinds[other] = kinds[other], kinds[number]
    items: List[Request] = []
    for number, kind in enumerate(kinds):
        if kind == "resubmit":
            original = items[rng.randrange(number - RESUBMIT_GAP + 1)]
            items.append(replace(original, kind=kind))
        elif kind == "near-duplicate":
            items.append(replace(next(near), kind=kind,
                                 timeout_s=86400.0 + number))
        else:
            base = next(fresh)
            old, new = FRESH_EDITS[base.name]
            # 2000 + number: new in the round, and fits simm13.
            items.append(replace(base, kind=kind, code=base.code.replace(
                old, new.format(k=2000 + number))))
    shapes = [1] * SINGLES + [BATCH_ITEMS] * BATCHES
    rng.shuffle(shapes)
    draws, at = [], 0
    for size in shapes:
        draws.append(items[at:at + size])
        at += size
    return draws


def _spread(choices: List[Request], count: int,
            rng: random.Random) -> Iterator[Request]:
    """*count* picks from *choices*, each as often as the others (to
    within one), in a shuffled order."""
    picks = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(picks)
    return iter(picks)


class Fleet:
    """One ``repro serve --shards nproc`` process tree, in a process
    group of its own."""

    def __init__(self, ctx: Context, tag: str, traced: bool = False):
        self.dir = os.path.join(ctx.workdir, tag)
        os.makedirs(self.dir, exist_ok=True)
        self.shards = os.cpu_count() or 1
        command = [sys.executable, "-m",
                   "perfbench.fleet" if traced else "repro.cli"]
        if not traced:
            command.append("serve")
        command += ["--port", "0", "--shards", str(self.shards),
                    "--workers", "1", "--queue-limit", "256",
                    "--cache", os.path.join(self.dir, "store.sqlite")]
        env = clean_env(PERFBENCH_LAYER_DIR=self.dir)
        self.log_path = os.path.join(self.dir, "serve.log")
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(command, stderr=log, env=env,
                                            start_new_session=True)
        self.url: Optional[str] = None

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.kill()

    def await_healthy(self, limit_s: float = 60.0) -> None:
        from repro.service.client import ServiceError, fetch_json
        deadline = time.monotonic() + limit_s
        while time.monotonic() < deadline:
            if self.url is None:
                with open(self.log_path) as handle:
                    for line in handle:
                        if line.startswith("repro service listening on "):
                            self.url = line.split()[4]
            if self.url is not None:
                try:
                    health = fetch_json(self.url, "/healthz",
                                        timeout_s=5)
                    if health.get("status") == "ok" and \
                            health.get("shard_count", 1) >= self.shards:
                        return
                except (ServiceError, OSError):
                    pass
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        with open(self.log_path) as handle:
            raise RuntimeError("fleet did not become healthy:\n"
                               + handle.read()[-2000:])

    def shard_pids(self) -> List[int]:
        path = "/proc/%d/task/%d/children" % (self.process.pid,
                                             self.process.pid)
        try:
            with open(path) as handle:
                return [int(pid) for pid in handle.read().split()]
        except OSError:
            return []

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the fleet's processes."""
        total_kib = 0
        for pid in [self.process.pid] + self.shard_pids():
            try:
                with open("/proc/%d/status" % pid) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def kill(self, shards: Optional[List[int]] = None) -> None:
        """SIGKILL the fleet's process group and wait until every process
        of it has ended (*shards*: its shard pids, if already known)."""
        if shards is None:
            shards = self.shard_pids()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        # The shards are not our children: poll until each has ended.
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in shards) \
                and time.monotonic() < deadline:
            time.sleep(0.01)

    def drain(self) -> bool:
        """SIGTERM, then wait up to ``DRAIN_S``; True when the fleet
        exited with status 0 in time.  A fleet still running is killed,
        with every shard."""
        shards = self.shard_pids()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(DRAIN_S)
        except subprocess.TimeoutExpired:
            self.kill(shards)
            return False
        # A shard that outlived its parent would still hold the group.
        self.kill(shards)
        return code == 0


def _alive(pid: int) -> bool:
    """Whether process *pid* exists and has not ended (a zombie has)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


class Load:
    """Closed-loop clients over one round's draws; collects latencies
    by request class and checks every answer."""

    def __init__(self, url: str, out: Outcome):
        self.url = url
        self.out = out
        self.lock = threading.Lock()
        #: "<class> <program>" of a single request (class "resubmit",
        #: "near-duplicate" or "fresh"), or "batch" -> latencies.
        self.latencies: Dict[str, List[float]] = {}
        self.overheads: List[float] = []
        self.completed = 0
        self.retries = 0
        #: Reference-loop samples taken between draws.
        self.refs: List[float] = []

    def _sleep(self, seconds: float) -> None:
        with self.lock:
            self.retries += 1
        time.sleep(seconds)

    def _record(self, item: Request, job: dict, latency: float,
                single: bool) -> None:
        out = self.out
        with self.lock:
            out.attempted += 1
            if job.get("state") != "completed" or "result" not in job:
                out.failed += 1
                errors = out.detail.setdefault("errors", [])
                if len(errors) < 5:
                    errors.append("%s: %s %s" % (
                        item.name, job.get("state"), job.get("error")))
                return
            self.completed += 1
            for text in payload_problems(item.expect, item.name,
                                         job["result"]):
                out.problem(text)
            if single and not job.get("dedup"):
                self.overheads.append(
                    latency - job["result"]["times"]["total"])

    def _send(self, items: List[Request]) -> None:
        from repro.service.client import ServiceError, submit, submit_batch
        start = time.perf_counter()
        try:
            if len(items) == 1:
                job = submit(self.url, dict(items[0].body(), wait=True),
                             retries=8, sleep=self._sleep)
                latency = time.perf_counter() - start
                self._record(items[0], job, latency, True)
            else:
                doc = submit_batch(self.url,
                                   [item.body() for item in items],
                                   wait=True, retries=8, sleep=self._sleep)
                latency = time.perf_counter() - start
                for item, entry in zip(items, doc["items"]):
                    self._record(item, entry.get("job") or {
                        "state": "rejected", "error": entry.get("error")},
                        latency, False)
        except ServiceError as error:
            latency = time.perf_counter() - start
            for item in items:
                self._record(item, {"state": "error",
                                    "error": str(error)}, latency, False)
        group = "%s %s" % (items[0].kind, items[0].name) \
            if len(items) == 1 else "batch"
        with self.lock:
            self.latencies.setdefault(group, []).append(latency)

    def drive(self, draws: List[List[Request]]) -> float:
        """Send every draw; returns the wall time until the last answer,
        less the time spent sampling the host between draws."""
        pending = list(reversed(draws))
        sampling = [0.0]

        def client() -> None:
            sent = 0
            while True:
                with self.lock:
                    if not pending:
                        return
                    items = pending.pop()
                self._send(items)
                sent += 1
                if sent % REF_EVERY == 0:
                    # Between draws the fleet idles (one client), so the
                    # sample sees the host as the checks did.
                    start = time.perf_counter()
                    sample = host_ref_once()
                    with self.lock:
                        self.refs.append(sample)
                        sampling[0] += time.perf_counter() - start

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client did not finish")
        return time.perf_counter() - start - sampling[0]


def warm_up(fleet: Fleet, bases: List[Request], out: Outcome) -> None:
    """Check each base program once, untimed and uncounted, so the
    fleet's shards have loaded the checker and the client its HTTP
    code before the round's traffic: a service pays this once, not per
    request.  The answers are checked all the same."""
    from repro.service.client import submit
    for base in bases:
        job = submit(fleet.url, dict(base.body(), wait=True))
        for text in payload_problems(base.expect, base.name,
                                     job.get("result", {})):
            out.problem(text)


def service_metrics(fleet: Fleet, load: Load
                    ) -> Dict[str, Tuple[float, str]]:
    from repro.service.client import fetch_json
    metrics = fetch_json(fleet.url, "/metrics", timeout_s=30)
    return {
        "service.overhead_s.p50": (
            statistics.median(load.overheads) if load.overheads else 0.0,
            "s"),
        "service.dedup_hits": (float(metrics.get("dedup_hits", 0)),
                               "count"),
        "service.unit_hit_rate": (float(metrics.get("prover", {}).get(
            "unit_hit_rate", 0.0)), "ratio"),
        "service.retries_429": (float(load.retries), "count"),
    }


def finish_round(fleet: Fleet, out: Outcome) -> None:
    """The drain, and its outcome in the detail line."""
    out.detail.setdefault("drains", []).append(
        "exited" if fleet.drain() else "killed after %.0fs" % DRAIN_S)


def traced_round(ctx: Context, out: Outcome, bases: List[Request],
                 untraced_round_s: float) -> None:
    """One round against a fleet whose shards trace every layer;
    *untraced_round_s* is the traffic time of one untraced round."""
    with Fleet(ctx, "traced", traced=True) as fleet:
        fleet.await_healthy()
        warm_up(fleet, bases, out)
        load = Load(fleet.url, out)
        wall = load.drive(round_draws(ctx.seed, 999, bases))
        out.layers.update(service_metrics(fleet, load))
        shards = fleet.shard_pids()
        for pid in shards:
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        files: List[str] = []
        while time.monotonic() < deadline:
            files = glob.glob(os.path.join(fleet.dir, "layers-*.json"))
            if len(files) >= len(shards):
                break
            time.sleep(0.05)
        totals: Dict[str, float] = {}
        for path in files:
            with open(path) as handle:
                for key, value in json.load(handle).items():
                    if key.startswith("intern."):
                        totals[key] = max(totals.get(key, 0), value)
                    else:
                        totals[key] = totals.get(key, 0) + value
        out.layers.update(layer_metrics(totals))
        out.layers["trace.overhead"] = (wall / untraced_round_s, "ratio")
        finish_round(fleet, out)


def run(ctx: Context, out: Outcome) -> None:
    import repro.service.client  # noqa: F401  (set-up: imports)
    bases = base_programs()
    fleet = Fleet(ctx, "round-0")
    traffic_s, completed, rounds = 0.0, 0, 0
    latencies: Dict[str, List[float]] = {}
    peaks: List[float] = []
    service: Dict[str, List[float]] = {}
    try:
        fleet.await_healthy()
        ctx.mark_ready()
        if ctx.setup_only:
            return
        while True:
            if rounds:
                fleet = Fleet(ctx, "round-%d" % rounds)
                fleet.await_healthy()
            warm_up(fleet, bases, out)
            load = Load(fleet.url, out)
            traffic_s += load.drive(round_draws(ctx.seed, rounds, bases))
            out.refs += load.refs
            completed += load.completed
            for group, values in load.latencies.items():
                latencies.setdefault(group, []).extend(values)
            peaks.append(fleet.peak_rss_mb())
            for name, (value, _) in service_metrics(fleet, load).items():
                service.setdefault(name, []).append(value)
            finish_round(fleet, out)
            rounds += 1
            if traffic_s >= ctx.run_seconds:
                break
    finally:
        fleet.__exit__()
    # Scaled to the host's nominal speed, as the checking workloads'
    # times are (see README, "Steadiness").
    factor = scale_factor(out.refs)
    every = [v * factor for values in latencies.values() for v in values]
    out.metric("checks_per_s", completed / (traffic_s * factor), "1/s")
    out.metric("verdict_s.gmean", factor * gmean(
        statistics.median(v) for v in latencies.values()), "s")
    out.metric("peak_rss_mb", max(peaks), "MB")
    out.detail.update(
        rounds=rounds, traffic_s=traffic_s, draws=len(every),
        raw_checks_per_s=completed / traffic_s,
        latency_s={group: statistics.median(v) * factor
                   for group, v in sorted(latencies.items())},
        service={name: sum(v) / len(v) for name, v in service.items()})
    out.detail["latency_s.p50"] = percentile(every, 0.50)
    if len(every) >= 200:
        out.detail["latency_s.p95"] = percentile(every, 0.95)
    if ctx.trace:
        traced_round(ctx, out, bases, traffic_s / rounds)
