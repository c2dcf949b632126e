"""Workload ``recheck``: the warm incremental path.

Set-up fills a fresh persistent store with cold ``cache_path`` checks
of the 13 Figure-9 programs and of the chain program behind
``repro bench --incremental``.  A round re-checks, in an order shuffled
by the workload seed, each of those 14 programs unchanged and each of
the two ``EDITS`` (``repeats`` times each), every time with a fresh
``SafetyChecker`` on the same store and empty in-memory caches (as a
fresh ``repro check --cache`` process has them).  An edit changes one
constant inside one function, to a value not used before in the run,
so its digest is always new and only that function misses the store.

Every re-check's verdict projection must equal that of a cache-free
check of the same source (computed after the timed part), and every
program, edited or not, must keep its hand-written verdict.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    Context, Expectation, Meter, Outcome, add_counts, cold_reset, cpu_clock,
    gmean, median_by_key, peak_rss_mb, per_round, result_problems,
    timed_rounds, work_counts,
)
from perfbench.layers import traced_round

#: Verdict-neutral edits: program -> (text to replace, template for the
#: replacement with ``{k}`` for the new constant).  Each touches one
#: function: btree2's ``cmpkey`` (a different comparison result), the
#: chain's ``fone`` (the increment).  heapsort2 and md5 are not edited:
#: they store no phase-5 units (see README), so an edited re-check costs
#: what an unchanged one does, and its cache-free reference as much
#: again.
EDITS: Dict[str, Tuple[str, str]] = {
    "btree2": ("sub %o0,%o1,%o0", "sub %o0,{k},%o0"),
    "chain": ("add %g3,1,%g3", "add %g3,{k},%g3"),
}

#: Re-checks of each program, unchanged and edited, per round.  An
#: unchanged heapsort2 or md5 re-check re-runs all its prover queries
#: and takes about 2 s, so it is done once; the other re-checks take 5
#: to 120 ms, with a spread of a third from one to the next, and are
#: repeated for a steady median.
REPEATS = 4
HEAVY = ("heapsort2", "md5")


def repeats(name: str) -> int:
    return 1 if name in HEAVY else REPEATS


#: The chain program is certified safe (every index is masked).
CHAIN_EXPECTATION = Expectation(safe=True)


def sources() -> List[Tuple[str, str, str, Expectation]]:
    """(name, assembly, spec, expectation) of the 14 stored programs."""
    from repro.bench import INCREMENTAL_SOURCE, INCREMENTAL_SPEC
    from repro.programs import all_programs
    out = [(p.name, p.source, p.spec_text, Expectation.of(p))
           for p in all_programs()]
    out.append(("chain", INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
                CHAIN_EXPECTATION))
    return out


def edited(source: str, name: str, constant: int) -> str:
    old, template = EDITS[name]
    if source.count(old) != 1:
        raise ValueError("edit for %s does not apply" % name)
    return source.replace(old, template.format(k=constant))


def check(name: str, source: str, spec: str, store: Optional[str],
          meter: Optional[Meter] = None):
    """One serial check on *store* (None: cache-free) with empty
    in-memory caches and no trace file, whatever the environment says.
    Returns (seconds, result, verdict projection).  With *meter*, the
    host is sampled between emptying the caches and the check."""
    from repro.analysis.checker import SafetyChecker
    from repro.analysis.options import CheckerOptions
    from repro.analysis.report import result_to_json, verdict_projection
    from repro.policy.parser import parse_spec
    options = CheckerOptions(jobs=1, cache_path=store, trace_path=None)
    cold_reset()
    if meter is not None:
        meter.checkpoint()
    start = cpu_clock()
    with SafetyChecker(source, parse_spec(spec), name=name,
                       options=options) as checker:
        result = checker.check()
    seconds = cpu_clock() - start
    return seconds, result, json.dumps(
        verdict_projection(result_to_json(result)), sort_keys=True)


def store_mb(path: str) -> float:
    return sum(os.path.getsize(path + suffix)
               for suffix in ("", "-wal") if os.path.exists(path + suffix)
               ) / (1024.0 * 1024.0)


def run(ctx: Context, out: Outcome) -> None:
    suite = sources()
    store = os.path.join(ctx.workdir, "store.sqlite")
    for name, source, spec, _ in suite:
        check(name, source, spec, store)
    ctx.mark_ready()
    if ctx.setup_only:
        return

    rng = random.Random(ctx.seed)
    used = set()
    # The warm re-checks and the unchanged HEAVY ones each have a meter
    # of their own, so that the warm rate is scaled by samples taken
    # between warm re-checks.
    warm, heavy = Meter(), Meter()
    counts: Dict[str, int] = {}
    #: (name, source, spec, expectation, projection) of every re-check.
    seen: List[Tuple[str, str, str, Expectation, str]] = []
    by_name = {entry[0]: entry for entry in suite}

    def fresh_constant() -> int:
        while True:
            constant = rng.randrange(2, 4000)
            if constant not in used:
                used.add(constant)
                return constant

    def one_round(index: int) -> None:
        jobs = []
        for name, source, spec, expectation in suite:
            jobs += [(name, source, spec, expectation)] * repeats(name)
        for name in EDITS:
            _, source, spec, expectation = by_name[name]
            jobs += [(name + "+edit",
                      edited(source, name, fresh_constant()),
                      spec, expectation)
                     for _ in range(repeats(name))]
        rng.shuffle(jobs)
        for label, source, spec, expectation in jobs:
            meter = heavy if label in HEAVY else warm
            seconds, result, projection = check(label.split("+")[0],
                                                source, spec, store, meter)
            meter.op(seconds, label)
            out.attempted += 1
            add_counts(counts, work_counts(result))
            for key in ("unit_hits", "unit_misses", "unit_stores",
                        "unit_pipeline_hits"):
                counts[key] = counts.get(key, 0) \
                    + int(result.prover_stats.get(key, 0))
            seen.append((label, source, spec, expectation, projection))

    # Two rounds at least, so every re-check kind has a median of two.
    wall, cpu, rounds = timed_rounds(ctx.run_seconds, one_round,
                                     min_rounds=ctx.min_rounds(2))
    # checks_per_s counts the warm re-checks, the ones the store
    # serves.  The unchanged HEAVY re-checks replay no phase-5 units (a
    # known waste, see README), so each costs nearly a cold check; they
    # would be 70% of the time, and a slower warm path would hardly move
    # the rate.  They stay in the round, in verdict_s.gmean and in the
    # detail line.
    warm_checks = out.attempted - rounds * len(HEAVY)
    medians = median_by_key(dict(warm.samples, **heavy.samples))
    out.metric("checks_per_s", warm_checks / warm.total_s, "1/s")
    out.metric("verdict_s.gmean", gmean(medians.values()), "s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.refs = warm.refs + heavy.refs
    out.detail.update(rounds=rounds, wall_s=wall, cpu_s=cpu,
                      raw_checks_per_s=warm_checks / warm.raw_total_s,
                      heavy_share=heavy.raw_total_s
                      / (heavy.raw_total_s + warm.raw_total_s),
                      store_mb=store_mb(store),
                      work_per_round=per_round(counts, rounds),
                      verdict_s_median=medians)
    if ctx.trace:
        traced_round(ctx, out, lambda: one_round(rounds), cpu / rounds)

    # Cache-free references, once per distinct source.
    references: Dict[str, str] = {}
    for label, source, spec, expectation, projection in seen:
        name = label.split("+")[0]
        if source not in references:
            _, result, references[source] = check(name, source, spec,
                                                  None)
            for text in result_problems(expectation, label, result):
                out.problem(text)
        if projection != references[source]:
            out.problem("%s: re-check verdict differs from a cache-free "
                        "check of the same source" % label)
