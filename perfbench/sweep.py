"""Run workloads over several seeds and save every run's output.

    python3 perfbench/sweep.py --out DIR [--workload NAME ...]
                               [--seeds 1-10] [--seconds 10]

With no ``--workload`` every workload runs; ``--seeds 1`` makes this
the one command that runs them all once.  Each run is ``run.py`` in a
subprocess with ``--trace 0``, one at a time; its report is echoed
and its standard output saved to ``DIR/<workload>-seed<N>.out``.  At the end
the sweep prints ``compare.py``'s report for DIR: the median, quartiles
and spread of every end-to-end metric per workload.  Two sweeps of the
same code, compared with ``compare.py A B``, are the check that the
benchmark repeats within its bounds.  The exit code is non-zero when a
run failed or a result was wrong.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys
import time

import common
import compare


def seed_range(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--workload", action="append", choices=common.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload in args.workload or common.WORKLOADS:
        for seed in args.seeds:
            command = [
                sys.executable, str(common.HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", f"{args.seconds:g}", "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True)
            path = args.out / f"{workload}-seed{seed}.out"
            path.write_text(done.stdout)
            report = [
                line for line in done.stdout.splitlines()
                if line.startswith(("workload", "  "))
            ]
            print(
                f"{workload} seed {seed}: exit {done.returncode} "
                f"in {time.perf_counter() - started:.1f}s",
                *report, sep="\n", flush=True,
            )
            if done.returncode:
                failures += 1
                sys.stderr.write(done.stderr[-2000:])
    agree = compare.report([compare.load(args.out)])
    return 1 if failures or not agree else 0


if __name__ == "__main__":
    sys.exit(main())
