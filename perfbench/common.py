"""Shared pieces of the workload processes: the run context, timing
loops, statistics, hand-written expectations and the result record.

Everything here runs inside a workload process (started by
``perfbench/run.py`` with a fixed ``PYTHONHASHSEED``); nothing is
imported from the checker until a workload asks for it.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# run context and result
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """One workload process's arguments and scratch space."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: ``time.monotonic()`` in the launcher just before this process
    #: was spawned (CLOCK_MONOTONIC is system-wide on Linux, so the two
    #: processes' readings compare directly).
    spawned_at: float
    setup_only: bool
    root: str
    ready_at: Optional[float] = None

    @property
    def workdir(self) -> str:
        path = os.path.join(self.root, ".perfbench", "work",
                            "%s-%d" % (self.workload, os.getpid()))
        os.makedirs(path, exist_ok=True)
        return path

    @property
    def tracedir(self) -> str:
        path = os.path.join(self.root, ".perfbench", "traces")
        os.makedirs(path, exist_ok=True)
        return path

    def mark_ready(self) -> None:
        """Set-up ends here: the next thing is the first timed
        operation."""
        if self.ready_at is None:
            self.ready_at = time.monotonic()

    @property
    def run_seconds(self) -> float:
        """Seconds of untraced measurement.  A traced run measures one
        untraced round only, as the base of ``trace.overhead``."""
        return 0.0 if self.trace else self.seconds

    def min_rounds(self, rounds: int) -> int:
        return 1 if self.trace else rounds

    @property
    def setup_s(self) -> float:
        return self.ready_at - self.spawned_at

    def cleanup(self) -> None:
        shutil.rmtree(os.path.join(self.root, ".perfbench", "work",
                                   "%s-%d" % (self.workload, os.getpid())),
                      ignore_errors=True)


#: Variables through which the checker takes its defaults for a proof
#: pool, a persistent store and a trace file
#: (``repro/analysis/options.py``).  The benchmark sets those itself:
#: every check is serial, and only ``recheck`` and ``service`` use a
#: store, a fresh one of their own.  So no process it starts sees them.
CHECKER_ENV = ("REPRO_JOBS", "REPRO_CACHE", "REPRO_TRACE")


def clean_env(**extra: str) -> Dict[str, str]:
    """This process's environment without :data:`CHECKER_ENV`, plus
    *extra*: the environment of every process the benchmark starts."""
    env = {key: value for key, value in os.environ.items()
           if key not in CHECKER_ENV}
    env.update(extra)
    return env


@dataclass
class Outcome:
    """What one workload process hands back to the launcher."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: End-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics of the traced part, same shape.
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Work counts, per-program timings and anything else worth
    #: keeping beside the metrics (printed, never gated).
    detail: Dict[str, object] = field(default_factory=dict)
    #: Reference-loop samples (:func:`host_ref_once`) of the run.
    refs: List[float] = field(default_factory=list)
    #: Whether the run's times (set-up included) are scaled to the
    #: host's nominal speed.
    scaled: bool = True

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)
        else:
            self.problems[-1] = "... and more"


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


#: The clock of every checking-process timing: CPU seconds of this
#: process.  A check is serial and compute-bound, so on an idle machine
#: this equals its wall time; on a shared one it leaves out the time the
#: process waited for a core, which is not the checker's doing (see
#: README, "Steadiness").
cpu_clock = time.process_time


def timed_rounds(seconds: float, round_fn: Callable[[int], None],
                 min_rounds: int = 1) -> Tuple[float, float, int]:
    """Run whole rounds until *seconds* of wall time have passed (at
    least *min_rounds*); returns (wall seconds, CPU seconds, rounds).
    A round is never cut short, so every run attempts the same
    operations a whole number of times."""
    start = time.perf_counter()
    cpu_start = cpu_clock()
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        if rounds >= min_rounds \
                and time.perf_counter() - start >= seconds:
            return (time.perf_counter() - start, cpu_clock() - cpu_start,
                    rounds)


#: CPU seconds :func:`host_ref_once` takes on the reference host when no
#: other tenant slows it (2-core x86-64 container, Python 3.11; the
#: 10th percentile of 540 samples).  It sets the speed that scaled
#: timings are expressed in.
REF_NOMINAL_S = 0.0050
#: How much a check's CPU time moves with the reference loop's, as the
#: exponent of their ratio.  The loop is more sensitive to other tenants
#: than the checker is: over four batches of fig9 runs here, scaling by
#: the square root gave a quartile spread of ``checks_per_s`` of 5 to 8%,
#: against 8 to 17% unscaled and 5 to 17% scaled by the full ratio.
REF_ELASTICITY = 0.5


def host_ref_once() -> float:
    """CPU seconds of a fixed allocation-heavy loop over tuples, dicts
    and frozensets, the kind of work the checker does.  It does the same
    work on every commit, so its time shows how fast the host is at that
    moment.  The collector is off, so the checker's heap does not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_clock()
        table = {}
        for i in range(10_000):
            key = (i % 97, i * 7 % 13, i)
            table[key] = frozenset((i % 5, i % 7, key))
        sum(len(value) for value in table.values())
        return cpu_clock() - start
    finally:
        if enabled:
            gc.enable()


def host_ref(samples: int = 8) -> List[float]:
    """*samples* reference timings in a row."""
    return [host_ref_once() for _ in range(samples)]


def scale_factor(refs: Sequence[float]) -> float:
    """Multiply a time measured alongside the reference samples *refs*
    by this to express it at the host's nominal speed."""
    return (REF_NOMINAL_S / statistics.median(refs)) ** REF_ELASTICITY


class Meter:
    """Operation times of one run, scaled to the host's nominal speed.

    The host is shared: the same cold md5 check took from 2.30 to 3.25
    CPU seconds in one process, depending on what other tenants ran
    (see README, "Steadiness").  The meter samples
    :func:`host_ref_once` at checkpoints, which a workload places right
    after :func:`cold_reset` (tables emptied, garbage collected), so the
    samples see the host and not the heap the checks left behind.  It
    takes one sample per ``every_s`` CPU seconds of operations recorded
    since the last checkpoint, and one at least if any were (at least
    ``MIN_SAMPLES`` at the first checkpoint, at most ``MAX_SAMPLES`` at
    any).  The host's speed changes within seconds, so each operation is
    scaled by :func:`scale_factor` of the ``WINDOW`` samples taken on
    either side of it, not by one figure for the whole run.  Operations
    are never interrupted, and sampling time is no operation's.
    """

    MIN_SAMPLES = 4
    MAX_SAMPLES = 32
    WINDOW = 16

    def __init__(self, every_s: float = 0.125):
        self.every_s = every_s
        self.refs: List[float] = []
        #: Raw CPU seconds of every operation.
        self.raw_total_s = 0.0
        #: (samples taken before it, raw CPU seconds, key, whether it is
        #: an operation) of every operation and keyed sample.
        self._records: List[Tuple[int, float, Optional[str], bool]] = []
        self._since_ref = 0.0

    def checkpoint(self) -> None:
        """Sample the host, if due.  Call right after :func:`cold_reset`."""
        due = math.ceil(self._since_ref / self.every_s)
        if not self.refs:
            due = max(due, self.MIN_SAMPLES)
        if due:
            self.refs += host_ref(min(due, self.MAX_SAMPLES))
            self._since_ref = 0.0

    def op(self, seconds: float, key: Optional[str] = None) -> None:
        """Record one operation's CPU seconds (and, with *key*, keep it
        as a sample of that key)."""
        self.raw_total_s += seconds
        self._since_ref += seconds
        self._records.append((len(self.refs), seconds, key, True))

    def sample(self, key: str, seconds: float) -> None:
        """Record a time within an operation (not added to the total)."""
        self._records.append((len(self.refs), seconds, key, False))

    def _scaled(self) -> List[Tuple[float, Optional[str], bool]]:
        factors: Dict[int, float] = {}
        out = []
        for position, seconds, key, is_op in self._records:
            if position not in factors:
                factors[position] = scale_factor(
                    self.refs[max(0, position - self.WINDOW):
                              position + self.WINDOW] or self.refs)
            out.append((seconds * factors[position], key, is_op))
        return out

    @property
    def total_s(self) -> float:
        return sum(seconds for seconds, _, is_op in self._scaled() if is_op)

    @property
    def samples(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for seconds, key, _ in self._scaled():
            if key is not None:
                out.setdefault(key, []).append(seconds)
        return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _malloc_trim() -> Callable[[int], int]:
    """glibc's ``malloc_trim``, or a stand-in where there is none."""
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


_MALLOC_TRIM = _malloc_trim()


def cold_reset() -> None:
    """Empty the formula memo caches and both intern tables, as a fresh
    ``repro check`` process has them, then collect garbage so the next
    timed check does not pay for the previous one's, and hand the freed
    memory back to the system, so that the next check's peak resident
    memory does not depend on what the checks before it left behind."""
    from repro.logic.formula import set_formula_interning
    from repro.logic.memo import clear_all_caches
    from repro.logic.terms import set_term_interning
    clear_all_caches()
    set_formula_interning(False)
    set_formula_interning(True)
    set_term_interning(False)
    set_term_interning(True)
    gc.collect()
    _MALLOC_TRIM(0)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def gmean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_by_key(samples: Dict[str, List[float]]) -> Dict[str, float]:
    return {key: statistics.median(values)
            for key, values in sorted(samples.items())}


# ---------------------------------------------------------------------------
# hand-written expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    """The verdict a program must get: safe, or exactly these flagged
    instructions in exactly these violation categories."""

    safe: bool
    indices: Tuple[int, ...] = ()
    categories: Tuple[str, ...] = ()

    @classmethod
    def of(cls, program) -> "Expectation":
        """From a Figure-9 ``BenchmarkProgram``'s own fields."""
        return cls(program.expect_safe,
                   tuple(program.expected_violation_indices),
                   tuple(program.expected_violation_categories))

    def problems(self, name: str, safe: bool, timed_out: bool,
                 violations: Iterable[Tuple[int, str]]) -> List[str]:
        """Mismatches between this expectation and one verdict, given
        as the verdict's (instruction, category) pairs."""
        if timed_out:
            return ["%s: undecided (timeout)" % name]
        violations = list(violations)
        if safe != self.safe:
            return ["%s: %s, expected %s" % (
                name, "safe" if safe else "unsafe %r" % violations,
                "safe" if self.safe else "unsafe")]
        out = []
        indices = sorted({index for index, _ in violations})
        categories = sorted({category for _, category in violations})
        if not self.safe and indices != sorted(set(self.indices)):
            out.append("%s: flagged %s, expected %s"
                       % (name, indices, sorted(set(self.indices))))
        if not self.safe and categories != sorted(set(self.categories)):
            out.append("%s: categories %s, expected %s"
                       % (name, categories,
                          sorted(set(self.categories))))
        return out


def result_problems(expectation: Expectation, name: str,
                    result) -> List[str]:
    """:meth:`Expectation.problems` for a ``CheckResult``."""
    return expectation.problems(
        name, result.safe, result.timed_out,
        [(v.index, v.category) for v in result.violations])


def payload_problems(expectation: Expectation, name: str,
                     payload: Dict) -> List[str]:
    """:meth:`Expectation.problems` for a ``result_to_json`` payload."""
    return expectation.problems(
        name, bool(payload.get("safe")), bool(payload.get("timed_out")),
        [(v["instruction"], v["category"])
         for v in payload.get("violations", ())])


def work_counts(result) -> Dict[str, int]:
    """The deterministic work one check did (next to its time)."""
    stats = result.prover_stats or {}
    return {
        "prover_queries": int(result.prover_queries),
        "induction_runs": int(result.induction_runs),
        "obligations": len(result.proofs),
        "dnf_conjuncts": int(stats.get("conjunct_queries", 0)),
    }


def add_counts(total: Dict[str, int], counts: Dict[str, int]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def per_round(counts: Dict[str, int], rounds: int) -> Dict[str, float]:
    """Work counts of one round: they compare across runs of any
    length, and between commits."""
    return {key: value / rounds for key, value in sorted(counts.items())}
