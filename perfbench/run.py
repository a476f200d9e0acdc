"""Benchmark of eecsim: one workload per run, every output checked.

Run from the root of an eecsim checkout::

    python3 perfbench/run.py --workload segmentation --seed 1 --seconds 20 --trace 0

The workload's subcommands run one after another through
``eecsim.cli.main`` in this process, in whole rounds, until ``--seconds``
would be exceeded by one more round.  After each round every output is
checked (``checks.py``) and compared byte for byte with the first round's,
which runs untimed so that caches fill and first-call costs are paid.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (one subcommand invocation with its
checks is one operation) and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates plain and traced rounds and
reports the per-layer metrics, writing the spans to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# numpy is first loaded inside main(), so these take effect in this process
# and in every set-up interpreter it starts: dense solves use one BLAS thread
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

WORKLOAD_NAMES = ("coverage_curves", "segmentation", "reliability", "validation")
END_TO_END = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_REPEATS = 5
# a fresh interpreter: import the CLI and resolve the workload's scenarios
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import eecsim.cli
for path in sys.argv[2:]:
    eecsim.cli.load_config(path or None)
print(repr(time.perf_counter() - start))
"""


def measure_setup(src: str, configs) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, src, *[path or "" for path in configs]],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Runner:
    """Runs rounds of a plan's operations and judges their outputs."""

    def __init__(self, plan, workdir: str):
        # imported late: both load numpy, and eecsim needs src/ on sys.path
        import checks
        import eecsim.cli

        self.checks = checks
        self.cli = eecsim.cli
        self.plan = plan
        self.workdir = workdir
        self.first: dict[str, bytes] = {}
        self.rows: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round(self, tracer=None) -> float:
        """Run every operation once; returns the wall time of the subcommands."""
        gc.collect()
        wall = 0.0
        done = []
        for op in self.plan.operations:
            out = os.path.join(self.workdir, op.name + ".csv")
            if os.path.exists(out):
                os.unlink(out)
            argv = op.argv + ["--out", out]
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.span("cli.command"):
                        code = self.cli.main(argv)
            except Exception:  # an operation that raises is counted as failed
                traceback.print_exc()
                code = None
            wall += time.perf_counter() - start
            done.append((op, code, out))
        for op, code, out in done:
            self._judge(op, code, out)
        return wall

    def _judge(self, op, code, out: str):
        self.attempted += 1
        if code != 0 or not os.path.isfile(out):
            self.failed += 1
            print(f"{op.name}: exit code {code}", file=sys.stderr)
            return
        with open(out, "rb") as handle:
            data = handle.read()
        try:
            table = self.checks.read_table(data.decode("utf-8"))
            problems = op.check(table)
            self.rows.setdefault(op.name, len(table.rows))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"output could not be read: {exc!r}"]
        if data != self.first.setdefault(op.name, data):
            problems.append("output bytes differ from the first round's")
        if problems:
            self.failed += 1
            self.correct = False
            for line in problems[:5]:
                print(f"{op.name}: {line}", file=sys.stderr)


def _rounds(seconds: float, step) -> None:
    """Call ``step`` until one more call would end past ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eecsim", "cli.py")):
        print(f"error: no eecsim sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import eecsim

    if not os.path.abspath(eecsim.__file__).startswith(src + os.sep):
        print(f"error: eecsim was imported from {eecsim.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    out_dir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(plan, workdir)
        runner.round()  # untimed: caches fill and first-call costs are paid
        if args.trace:
            tracer = spans.Tracer()
            plain, traced = [], []

            def pair():
                plain.append(runner.round())
                with spans.instrument(tracer):
                    traced.append(runner.round(tracer))

            _rounds(args.seconds, pair)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
            overhead = statistics.median(traced) - statistics.median(plain)
            values = spans.layer_metrics(tracer.spans, len(traced), overhead)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in spans.PER_LAYER.items()}
        else:
            setup = [measure_setup(src, plan.configs) for _ in range(SETUP_REPEATS)]
            walls = []
            _rounds(args.seconds, lambda: walls.append(runner.round()))
            wall = statistics.median(walls)
            values = {
                "wall_s": wall,
                "rows_per_s": sum(runner.rows.values()) / wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
