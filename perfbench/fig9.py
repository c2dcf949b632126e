"""Workload ``fig9``: the paper's 13 Figure-9 programs, checked cold.

Set-up assembles every program and parses its specification.  A round
is one pass over the suite in an order shuffled by the workload seed;
every check starts from empty formula memo caches and intern tables, as
a fresh ``repro check`` process does, with no store and no budget.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from perfbench.common import (
    Context, Expectation, Meter, Outcome, add_counts, cold_reset, cpu_clock,
    gmean, median_by_key, peak_rss_mb, per_round, result_problems,
    timed_rounds, work_counts,
)
from perfbench.layers import traced_round


def setup():
    from repro.programs import all_programs
    return [(program, program.program(), program.spec(),
             Expectation.of(program))
            for program in all_programs()]


def check_cold(name: str, program, spec, meter: Optional[Meter] = None):
    """One timed cold check: serial, no store, no trace file, whatever
    the environment says.  Returns (CPU seconds, result).  With *meter*,
    the host is sampled between emptying the tables and the check."""
    from repro.analysis.checker import SafetyChecker
    from repro.analysis.options import CheckerOptions
    options = CheckerOptions(jobs=1, cache_path=None, trace_path=None)
    cold_reset()
    if meter is not None:
        meter.checkpoint()
    start = cpu_clock()
    result = SafetyChecker(program, spec, name=name,
                           options=options).check()
    return cpu_clock() - start, result


def run(ctx: Context, out: Outcome) -> None:
    suite = setup()
    ctx.mark_ready()
    if ctx.setup_only:
        return
    meter = Meter()
    counts: Dict[str, int] = {}

    def one_pass(index: int) -> None:
        order = list(suite)
        random.Random(ctx.seed * 1000 + index).shuffle(order)
        for source, program, spec, expectation in order:
            seconds, result = check_cold(source.name, program, spec,
                                         meter)
            meter.op(seconds, source.name)
            out.attempted += 1
            add_counts(counts, work_counts(result))
            for text in result_problems(expectation, source.name, result):
                out.problem(text)

    # Two passes at least, so every program has a median of two.
    wall, cpu, rounds = timed_rounds(ctx.run_seconds, one_pass,
                                     min_rounds=ctx.min_rounds(2))
    checks = out.attempted
    out.metric("checks_per_s", checks / meter.total_s, "1/s")
    out.metric("verdict_s.gmean",
               gmean(median_by_key(meter.samples).values()), "s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.refs = meter.refs
    out.detail.update(rounds=rounds, wall_s=wall, cpu_s=cpu,
                      raw_checks_per_s=checks / meter.raw_total_s,
                      work_per_round=per_round(counts, rounds),
                      verdict_s_median=median_by_key(meter.samples))

    # The emulation oracles run each program concretely and check its
    # observable result; they stay outside the timed part.
    for source, _, _, _ in suite:
        try:
            source.run_emulation_oracle()
        except AssertionError as error:
            out.problem("%s: emulation oracle: %s" % (source.name, error))

    if ctx.trace:
        traced_round(ctx, out, lambda: one_pass(rounds), cpu / rounds)
