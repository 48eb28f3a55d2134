"""Outside-in benchmark of the bspower command line.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload day-ahead --seed 0 --seconds 40 --trace 0

Workloads (``workloads.py``; BENCHMARK.json records why each exists):

  day-ahead      solve; solve --nonanticipative; simulate --physical-discharge
  qos-sweep      sweep cac; sweep arrival
  storage-sweep  sweep battery --scenarios <generated 80-scenario file>

BENCHMARK.json gates day-ahead and storage-sweep only. qos-sweep is almost
all Python event loop, and on a shared 2-vCPU host its run medians moved by
24-33% (quartile spread over ten seeds) with the host's load, so it is kept
for traced runs and side-by-side comparisons rather than gated.

Load model: a closed loop with one client in one process and no extra
threads. The client runs the workload's commands through
``bspower.cli.main`` back to back, after one untimed warm-up command, and
starts passes over the sequence until ``--seconds`` have elapsed. The BLAS
thread settings are recorded, never overridden.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing bspower and building the default
calibration), ``wall_s`` (median pass time) and ``peak_rss_mb``. It also
prints ``plan_s``, ``plan_na_s``, ``simulate_s`` (day-ahead command
medians), ``cells_per_s`` (sweeps) and ``error_rate``; these stay out of the
JSON because a gated metric must exist on every workload and never be 0.
``--trace 1`` alternates untraced and traced passes and reports per-module
metrics from spans recorded around the package's public functions
(``tracing.py``); on day-ahead it also runs the scaling probe
(``scaling.py``). Every command's outputs go through the correctness gate
(``gate.py``) after timing. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; correct is false when any
command failed or when the HiGHS cross-check could not run.

``--write-reference`` (seed 0 only) records the outputs' digests in
``reference_seed0.json`` instead of comparing against them. The digests
assume bspower runs from ``src/`` without being pip-installed, because
``manifest.txt`` names the installed package version.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import STORAGE_FILE, WORKLOADS, Command, Workload, storage_document

# gate, tracing and scaling import bspower, so they are imported where they
# are used, after main() has put the checkout's src/ first on sys.path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 7
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                 "import bspower; bspower.default_calibration(); print(time.perf_counter() - t0)")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Starting-line wall times (s) quoted in ROADMAP.md at the default calibration.
STARTING_LINE = {"solve": 3.8, "sweep-cac": 1.8, "sweep-battery": 1.0}
REPRODUCES_WITHIN = 0.25


@dataclass
class CommandRun:
    command: Command
    seconds: float
    problems: list[str]  # exit status and missing outputs
    digests: dict[str, str]
    output_bytes: int


class Runner:
    """Runs commands in process, each into a fresh --out directory."""

    def __init__(self, cli, seed: int, workdir: Path, storage_path: Path | None):
        from gate import digests

        self.digests = digests
        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.storage_path = storage_path
        self.runs: list[CommandRun] = []
        self.contents: dict[tuple, tuple] = {}  # (name, digests) -> (argv, stdout, files)

    def __call__(self, command: Command) -> float:
        out = self.workdir / f"out{len(self.runs)}"
        argv = [str(self.storage_path) if a == STORAGE_FILE else a for a in command.argv]
        argv += ["--seed", str(self.seed), "--out", str(out)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except (Exception, SystemExit):  # a crash counts as a failed command
            code = "an exception"
            traceback.print_exc()
        seconds = time.perf_counter() - t0

        problems = [] if code == 0 else [f"exited with {code}"]
        files = {}
        for name in command.outputs:
            path = out / name
            if path.is_file():
                files[name] = path.read_bytes()
            else:
                problems.append(f"missing {name}")
        stdout = buf.getvalue().replace(str(out), "<out>")
        found = self.digests(stdout, files)
        if not problems:
            key = (command.name, tuple(sorted(found.items())))
            self.contents.setdefault(key, (command.argv, stdout, files))
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(CommandRun(command, seconds, problems, found,
                                    sum(map(len, files.values()))))
        return seconds


@dataclass
class Pass:
    traced: bool
    times: list[float]
    output_bytes: int

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(runner: Runner, workload: Workload, tracer=None) -> Pass:
    first = len(runner.runs)
    with tracer.installed() if tracer else contextlib.nullcontext():
        times = [runner(command) for command in workload.commands]
    return Pass(tracer is not None, times, sum(r.output_bytes for r in runner.runs[first:]))


def host_facts() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    env = " ".join(f"{k}={os.environ.get(k, 'unset (library default)')}" for k in BLAS_ENV)
    return (f"host: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas} {env}")


def setup_seconds() -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(child.stdout))
    return samples


def check_outputs(runner: Runner, seed: int, doc: dict | None) -> tuple[int, bool, list[str]]:
    """Gate every distinct output.

    Returns (failed commands, whether every check could run, report lines).
    """
    from gate import REFERENCE_SEED, Gate

    gate = Gate(seed, doc)
    verdicts = {key: gate.check(key[0], argv, stdout, files)
                for key, (argv, stdout, files) in runner.contents.items()}
    failed = 0
    lines = []
    for run in runner.runs:
        key = (run.command.name, tuple(sorted(run.digests.items())))
        problems = run.problems or verdicts[key]
        if problems:
            failed += 1
            lines.append(f"FAILED {run.command.name}: " + "; ".join(problems))
    highs = (f"{gate.highs_checked} HiGHS cross-checks" if gate.highs_available
             else "HiGHS cross-check UNAVAILABLE (scipy not importable), not counted as passed")
    lines.append(f"checks: {len(verdicts)} distinct outputs gated, {highs}, "
                 f"reference digests {'compared' if seed == REFERENCE_SEED else 'not compared'}")
    return failed, gate.highs_available, lines


def write_reference(runner: Runner) -> None:
    from gate import REFERENCE_FILE

    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for run in runner.runs:
        if not run.problems:
            reference[run.command.name] = run.digests
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _median(values):
    return statistics.median(values) if values else float("nan")


def starting_line(workload: Workload, plain: list[Pass], warmup_s: float) -> list[str]:
    """Untraced medians against ROADMAP.md's starting-line rows."""
    samples = {c.name: [p.times[i] for p in plain] for i, c in enumerate(workload.commands)}
    samples.setdefault(workload.warmup.name, [warmup_s])
    lines = []
    for name, quoted in STARTING_LINE.items():
        if name not in samples:
            continue
        value = _median(samples[name])
        verdict = ("reproduces" if abs(value / quoted - 1.0) <= REPRODUCES_WITHIN
                   else "DOES NOT reproduce")
        lines.append(f"starting line: {name} {quoted} s quoted, {value:.3f} s measured "
                     f"(n={len(samples[name])}): {verdict} within {REPRODUCES_WITHIN:.0%}")
    return lines


def measure(args, cli) -> tuple[dict, int, int, bool, list[str]]:
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    lines = [host_facts(),
             f"workload {workload.name}: seed {args.seed}, closed loop, 1 client, 1 process, "
             f"{args.seconds} s"]
    try:
        doc = None
        storage_path = None
        if workload.needs_storage_file:
            doc = storage_document(args.seed)
            storage_path = workdir / STORAGE_FILE
            storage_path.write_text(json.dumps(doc, indent=1) + "\n")
        runner = Runner(cli, args.seed, workdir, storage_path)
        setup = setup_seconds() if not args.trace else []

        warmup_s = runner(workload.warmup)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        passes: list[Pass] = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(passes) < 2 * args.trace:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(runner, workload, tracer if traced else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.write_reference:
            write_reference(runner)
        failed, complete, check_lines = check_outputs(runner, args.seed, doc)
        plain = [p for p in passes if not p.traced]
        lines.append(f"passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; "
                     f"untraced pass walls (s): {' '.join(f'{p.wall:.4f}' for p in plain)}")
        for i, command in enumerate(workload.commands):
            times = [p.times[i] for p in plain]
            lines.append(f"  {command.name:24s} median {_median(times):8.4f} s "
                         f"(min {min(times):.4f}, max {max(times):.4f}, n={len(times)})")
        wall_s = _median([p.wall for p in plain])

        if args.trace:
            metrics = traced_metrics(tracer, passes, wall_s, lines)
            if workload.scaling_probe:
                from scaling import probe
                lines.extend("scaling probe " + line for line in probe(SRC, args.seed))
            else:
                lines.append("scaling probe: runs on the day-ahead workload only")
        else:
            metrics = {
                "setup_s": (_median(setup), "s"),
                "wall_s": (wall_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            lines.extend(workload_lines(workload, plain, setup))
        lines.extend(starting_line(workload, plain, warmup_s))
        lines.extend(check_lines)
        attempted = len(runner.runs)
        lines.append(f"metric error_rate = {failed}/{attempted} = {failed / attempted:.4f} "
                     f"(failed / attempted commands, warm-up included)")
        return metrics, attempted, failed, complete, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def workload_lines(workload: Workload, plain: list[Pass], setup: list[float]) -> list[str]:
    """The workload-specific end-to-end figures, printed but not gated."""
    lines = [f"setup samples: {', '.join(f'{s:.4f}' for s in setup)} s"]
    for i, command in enumerate(workload.commands):
        if command.metric:
            lines.append(f"metric {command.metric} = "
                         f"{_median([p.times[i] for p in plain]):.4f} s")
    sweeps = [i for i, c in enumerate(workload.commands) if c.rows]
    if sweeps:
        cells = sum(workload.commands[i].rows for i in sweeps)
        seconds = _median([sum(p.times[i] for i in sweeps) for p in plain])
        lines.append(f"metric cells_per_s = {cells / seconds:.4f} 1/s "
                     f"({cells} sweep CSV rows per pass)")
    return lines


def traced_metrics(tracer, passes: list[Pass], wall_s: float, lines: list[str]) -> dict:
    from tracing import layer_metrics, shares

    traced = [p for p in passes if p.traced]
    traced_wall = _median([p.wall for p in traced])
    metrics = layer_metrics(tracer.spans, len(traced),
                            _median([p.output_bytes for p in traced]))
    metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    lines.append(f"traced pass {traced_wall:.4f} s vs untraced {wall_s:.4f} s; "
                 f"self time per pass by layer:")
    for layer, seconds, share in shares(tracer.spans, len(traced), traced_wall):
        lines.append(f"  {layer:20s} {seconds:9.4f} s  {share:6.1%}")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.write_reference and args.seed != 0:
        parser.error("--write-reference needs --seed 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bspower" / "__init__.py").is_file():
        print(f"error: no bspower package at {SRC / 'bspower'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bspower.cli as cli

    metrics, attempted, failed, complete, lines = measure(args, cli)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
