"""Compare report: medians, quartiles and spreads of sets of runs.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

A *set of runs* is a directory of saved ``run.py`` outputs (as
``sweep.py`` writes them, one file per run).  For every workload ×
end-to-end metric the report prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  With one set it flags
spreads above the metric's bound (and above a third of it, the margin
the benchmark aims for).  With two it also gives the change of the
median, B against A, and says whether the sets agree: every spread
within its bound and every median within its bound of A's, better or
worse.  It also says whether B is no worse than A, the weaker test a
change that claims a gain must pass.  The exit code is 0 when the sets
agree (or, for one set, when every spread is within its bound).

Bounds come from ``BENCHMARK.json`` for the metrics every workload
reports and from ``common.WORKLOAD_METRICS`` for the workload-specific
ones.  ``error_rate`` must be 0 in every run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

import common


def bounds() -> dict:
    """name -> (bound, better) for every end-to-end metric."""
    table = {m["name"]: (m["bound"], m["better"]) for m in common.SPEC["end_to_end"]}
    for name, (_, bound) in common.WORKLOAD_METRICS.items():
        table[name] = (bound, "lower")
    return table


def load(directory: pathlib.Path) -> dict:
    """``{(workload, metric): [values]}`` from the untraced runs saved
    in *directory*."""
    values: dict = {}
    for path in sorted(directory.glob("*.out")):
        for line in path.read_text().splitlines():
            if not line.startswith(common.DETAIL_PREFIX):
                continue
            detail = json.loads(line[len(common.DETAIL_PREFIX):])
            if detail["trace"]:
                continue
            for name, metric in detail["metrics"].items():
                values.setdefault((detail["workload"], name), []).append(metric["value"])
    return values


class Summary:
    def __init__(self, values: list):
        self.count = len(values)
        self.median = statistics.median(values)
        if len(values) >= 2:
            self.q1, _, self.q3 = statistics.quantiles(values, n=4)
        else:
            self.q1 = self.q3 = values[0]
        self.spread = (self.q3 - self.q1) / self.median if self.median else 0.0


def worse_by(a: Summary, b: Summary, better: str) -> float:
    """How much worse B's median is than A's, as a share of A's
    (negative when B is better)."""
    if not a.median:
        return 0.0 if not b.median else float("inf")
    change = (b.median - a.median) / a.median
    return change if better == "lower" else -change


def report(sets: list, out=sys.stdout) -> bool:
    table = bounds()
    keys = sorted(set().union(*(s.keys() for s in sets)))
    agree = True
    no_worse = True
    for workload, name in keys:
        bound, better = table.get(name, (None, "lower"))
        summaries = []
        for values in sets:
            series = values.get((workload, name))
            summaries.append(Summary(series) if series else None)
        cells = []
        for summary in summaries:
            if summary is None:
                cells.append("missing")
                agree = False
                continue
            flag = ""
            if name == "error_rate":
                if summary.q3 or summary.median:
                    flag, agree = " ERRORS", False
            elif bound is not None and summary.spread > bound:
                flag, agree = " SPREAD>bound", False
            elif bound is not None and summary.spread > bound / 3:
                flag = " spread>bound/3"
            cells.append(
                f"median {summary.median:.6g} [q1 {summary.q1:.6g}, q3 {summary.q3:.6g}] "
                f"spread {summary.spread:.3f} n={summary.count}{flag}"
            )
        verdict = ""
        if len(summaries) == 2 and None not in summaries and bound is not None:
            worse = worse_by(summaries[0], summaries[1], better)
            if name == "error_rate":
                worse = 0.0 if summaries[1].median == 0 else float("inf")
            if worse > bound:
                text, agree, no_worse = "WORSE by more than the bound", False, False
            elif -worse > bound:
                text, agree = "BETTER by more than the bound", False
            else:
                text = "within bound"
            a, b = summaries
            change = (b.median - a.median) / a.median if a.median else 0.0
            verdict = f"B vs A: median {change:+.1%}, {text}"
        bound_text = "-" if bound is None else f"{bound:g}"
        print(f"{workload} {name} (bound {bound_text}, {better} is better)", file=out)
        for label, cell in zip("AB", cells):
            print(f"  {label}: {cell}", file=out)
        if verdict:
            print(f"  {verdict}", file=out)
    print("sets agree" if agree else "sets DO NOT agree", file=out)
    if len(sets) == 2:
        print("B no worse than A" if no_worse else "B WORSE than A", file=out)
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=pathlib.Path, help="one or two run directories")
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one or two run directories")
    sets = [load(directory) for directory in args.runs]
    return 0 if report(sets) else 1


if __name__ == "__main__":
    sys.exit(main())
