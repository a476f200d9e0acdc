"""Run ``eecsim validate`` over a range of seeds and report the failing ones.

Each seed runs in this process at the given replication count; a seed whose
report fails prints its failed rows (check, analytic, simulated, std_error,
gap, tolerance, status).  The last line counts the failing seeds, and the
exit status is 1 if any seed failed, else 0.  Not collected by pytest::

    python tests/seed_sweep.py --reps 2500 1-8 2026
    python tests/seed_sweep.py --reps 2500 1-130

Seeds are single integers or inclusive ranges ``a-b``.
"""

import argparse
import os
import sys
import tempfile

from eecsim.cli import main as eecsim


def seed_list(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def failed_rows(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if ",fail," in line]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--reps", type=int, required=True, help="replications per run")
    parser.add_argument("seeds", nargs="+", help="seeds: integers or inclusive ranges a-b")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            out = os.path.join(tmp, f"validate-{seed}.csv")
            status = eecsim(["validate", "--reps", str(args.reps), "--seed", str(seed),
                             "--out", out])
            if status != 0:
                failed.append(seed)
                print(f"seed {seed}: exit {status}")
                for row in failed_rows(out) if os.path.exists(out) else []:
                    print(f"  {row}")
    print(f"{len(failed)} of {len(seeds)} seeds failed at --reps {args.reps}"
          + (f": {' '.join(map(str, failed))}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
