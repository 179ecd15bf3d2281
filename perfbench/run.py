"""Benchmark of the conires CLI: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload bs-sweep --seed 1 --seconds 30 \
        --trace 0

The program is imported from ``src/`` next to this directory and driven
in-process through ``conires.cli.main(argv)``; only the generated argv
reaches it.  With ``--trace 0`` the run reports the end-to-end metrics:

  setup_s         median over SETUP_PROBES fresh interpreters, half run
                  before the timed region and half after the checks, of
                  the time from process start to the end of a first
                  trivial CLI call (turning-points); mostly importing scipy
  items_per_s     certified items per second of the timed region, a
                  closed loop of CLI calls that ends at the call boundary
                  nearest to --seconds (at least one call)
  certified_frac  share of attempted items that came back and passed the
                  output check, i.e. 1 - failed_frac
  peak_rss_mb     peak resident set size of this process

With ``--trace 1`` it runs the workload's first ``trace_jobs`` jobs once
untraced and once under the tracer, checks that both passes print the
same bytes, and reports the per-layer metrics of layers.py.  Spans go to
``.bench_out/`` in the current directory.

The environment is pinned before numpy loads: one BLAS/OpenMP thread,
RES_LAT_THREADS unset (the sweep runs serially), one process apart from
the set-up probes.  The last line of standard output is the result
object; the lines before it record the environment and each metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _PINNED_THREADS:
    os.environ[_var] = "1"
os.environ.pop("RES_LAT_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_PROBES = 4
SETUP_ARGV = ("turning-points", "--E", "2", "--nu", "0.5")
_PROBE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from conires.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[2:])
end = time.time()
sys.stdout.write(repr(end) + "\\n" + buf.getvalue())
sys.exit(code)
"""

END_TO_END = {"setup_s": "s", "items_per_s": "1/s",
              "certified_frac": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


def import_program():
    """Import conires from SRC, never from anywhere else on sys.path."""
    if not (SRC / "conires" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import conires.cli

    if Path(conires.cli.__file__).resolve().parent != SRC / "conires":
        raise BenchError(f"conires imported from {conires.cli.__file__}, "
                         f"not from {SRC}")
    return conires.cli


def call(cli, argv):
    """Run one CLI invocation; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = -1
    if code not in (0, 4):
        sys.stderr.write(f"conires {' '.join(argv)} -> {code}: "
                         f"{err.getvalue()}")
    return code, out.getvalue()


def measure_setup(expected, probes):
    """Set-up times of ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _PROBE, str(SRC), *SETUP_ARGV],
            cwd=ROOT, env=os.environ.copy(), capture_output=True,
            text=True, timeout=120)
        end, _, text = proc.stdout.partition("\n")
        if proc.returncode != 0 or text != expected:
            raise BenchError(f"set-up probe failed ({proc.returncode}): "
                             f"{proc.stderr.strip()}")
        times.append(float(end) - start)
    return times


def environment():
    import numpy
    import scipy

    sources = sorted((SRC / "conires").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in _PINNED_THREADS},
        "RES_LAT_THREADS": os.environ.get("RES_LAT_THREADS"),
    }


def _git_commit():
    """HEAD of ROOT's own git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def check_all(workload, results, seed):
    rng = random.Random(f"check-{seed}")
    attempted = certified = 0
    for job, code, text in results:
        a, c = workload.check(job, code, text, rng)
        attempted += a
        certified += c
    return attempted, certified


def run_untraced(cli, workload, seed, seconds):
    # The machine's speed drifts over seconds, so the probes are split
    # around the timed region rather than run back to back.
    expected_setup = call(cli, SETUP_ARGV)[1]
    setup = measure_setup(expected_setup, SETUP_PROBES // 2)
    jobs = workload.jobs(seed)
    results = []
    start = time.perf_counter()
    while True:
        job = next(jobs)
        results.append((job, *call(cli, job.argv)))
        elapsed = time.perf_counter() - start
        # Stop at the job boundary nearest to ``seconds``: a long job
        # (one ODE zero takes about 30 s) is not followed by a second
        # one that would double the run.
        if elapsed * (1.0 + 0.5 / len(results)) >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, certified = check_all(workload, results, seed)
    setup += measure_setup(expected_setup, SETUP_PROBES - len(setup))
    metrics = {"setup_s": statistics.median(setup),
               "items_per_s": certified / elapsed,
               "certified_frac": certified / attempted,
               "peak_rss_mb": peak_rss_mb}
    notes = {"jobs": len(results), "timed_s": elapsed,
             "failed_frac": 1.0 - certified / attempted}
    return attempted, certified, True, metrics, END_TO_END, notes


def run_plan(cli, workload, seed, tracer=None):
    """Run the workload's first ``trace_jobs`` jobs, under ``tracer`` if
    given.

    Returns (results, wall seconds)."""
    jobs = workload.jobs(seed)
    plan = [next(jobs) for _ in range(workload.trace_jobs)]
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        results = [(job, *call(cli, job.argv)) for job in plan]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, wall


def run_traced(cli, workload, seed):
    from layers import UNITS, layer_metrics
    from tracer import Tracer

    call(cli, SETUP_ARGV)
    plain, untraced_s = run_plan(cli, workload, seed)
    tracer = Tracer(run_id=f"{workload.name}-{seed}")
    traced, traced_s = run_plan(cli, workload, seed, tracer)
    identical = [r[1:] for r in plain] == [r[1:] for r in traced]
    attempted, certified = check_all(workload, plain, seed)
    metrics = layer_metrics(tracer.stats, untraced_s, traced_s)
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    notes = {"jobs": len(plain), "output_identical": identical,
             "spans": len(tracer.spans), "spans_file": str(spans_path),
             "failed_frac": 1.0 - certified / attempted}
    return attempted, certified, identical, metrics, UNITS, notes


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        cli = import_program()
        workload = WORKLOADS[args.workload]
        if args.trace:
            result = run_traced(cli, workload, args.seed)
        else:
            result = run_untraced(cli, workload, args.seed, args.seconds)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    attempted, certified, outputs_ok, metrics, units, notes = result

    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 **notes}, sort_keys=True))
    if not args.trace:
        print(f"# failed_frac = {notes['failed_frac']!r} ratio")
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    failed = attempted - certified
    print(json.dumps({
        "correct": failed == 0 and outputs_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
