"""paracon benchmark: closed-loop CLI workloads with checked reports.

Usage, from the root of a paracon checkout:

    python3 bench/run.py --workload free-decide --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1           # every workload

Each workload is a single-process closed loop with one client: the next
command starts when the previous one returns, like a researcher running
commands one after another.  Commands run in-process through
paracon.cli.main with --input files, so the loop leaves out interpreter
start-up; a fresh interpreter's `import paracon.cli` is reported on its own
as setup_s.  Every report is checked by bench/checker.py, which shares no
code with paracon.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first round
twice, untraced and then traced, and prints the per-layer metrics of
bench/tracer.py with trace_overhead = traced / untraced commands per
second.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from checker import check_report  # noqa: E402
from reference import REFERENCE_SECONDS, reference_seconds  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402

SETUP_REPEATS = 11
WARMUP_COMMANDS = 3
REFERENCE_WINDOW = 4        # reference times on each side of a command
IMPORT_PROBE = ("import time; start = time.perf_counter(); import paracon.cli; "
                "elapsed = time.perf_counter() - start; import reference; "
                "print(elapsed, reference.reference_seconds())")


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)     # wall seconds
    scaled: list[float] = field(default_factory=list)    # seconds at reference speed
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    configurations: int = 0   # configuration-list entries over all reports

    def add(self, other: "Pass") -> None:
        self.times += other.times
        self.scaled += other.scaled
        self.attempted += other.attempted
        self.failures += other.failures
        self.configurations += other.configurations


def run_commands(cli, commands, workdir: Path, timed: bool = True) -> Pass:
    """Run each command through cli.main and check its report.

    The reference work is timed before the first command and after every
    command.  A command's time is scaled by REFERENCE_SECONDS over the median
    of the reference times in a window around it: a single reference time is
    itself noisy, and dividing by a noisy time biases the quotient upward.
    """
    result = Pass()
    references = [reference_seconds()]
    timed_at = []   # command index of each entry in result.times
    for index, (command, doc) in enumerate(commands):
        raw = json.dumps(doc, sort_keys=True).encode()
        path = workdir / f"{index}.json"
        path.write_bytes(raw)
        stdout, stderr = io.StringIO(), io.StringIO()
        result.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(command.split() + ["--input", str(path)])
        except (Exception, SystemExit):
            result.failures.append(f"{command}: {traceback.format_exc(limit=-1).strip()}")
            continue
        finally:
            elapsed = time.perf_counter() - start
            references.append(reference_seconds())
        if timed:
            result.times.append(elapsed)
            timed_at.append(index)
        if code != 0:
            result.failures.append(f"{command}: exit code {code}")
            continue
        try:
            report = json.loads(stdout.getvalue())
        except json.JSONDecodeError as err:
            result.failures.append(f"{command}: report is not JSON ({err})")
            continue
        problems = check_report(command, doc, raw, report)
        if problems:
            result.failures.append(f"{command}: {problems[0]}")
            continue
        data = report["data"]
        result.configurations += len(data.get("configurations", data.get("variables", ())))
    for index, elapsed in zip(timed_at, result.times):
        # references[index] and [index + 1] bracket the command
        window = references[max(0, index - REFERENCE_WINDOW): index + REFERENCE_WINDOW + 2]
        result.scaled.append(elapsed * REFERENCE_SECONDS / statistics.median(window))
    return result


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _regularized_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the beta
    distribution of the sample p-quantile.  A single order statistic, as
    statistics.quantiles gives, jumps between neighbours when the commands
    near the quantile fall on both sides of a gap in cost; this estimate
    moves smoothly and varies less between runs.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_regularized_beta(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def setup_seconds() -> float:
    """Median time of `import paracon.cli` in a fresh interpreter, scaled by
    the reference work timed in the same interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, reference = map(float, done.stdout.split())
        if attempt:  # the first import may still write bytecode caches
            samples.append(elapsed * REFERENCE_SECONDS / reference)
    return statistics.median(samples)


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "paracon").glob("*.py")))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, workload: str, seed: int, seconds: float, workdir: Path):
    setup = setup_seconds()
    total = run_commands(cli, make_round(workload, seed, -1)[:WARMUP_COMMANDS], workdir,
                         timed=False)
    rounds = WORKLOADS[workload].rounds_for(seconds)
    for index in range(rounds):
        total.add(run_commands(cli, make_round(workload, seed, index), workdir))
    times = total.scaled
    p90 = quantile(times, 0.9)
    metrics = {
        "ops_per_s": metric(len(times) / sum(times), "ops/s"),
        "op_s.p50": metric(quantile(times, 0.5), "s"),
        "op_s.p90": metric(p90, "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{len(times)} timed commands in {rounds} rounds, {sum(total.times):.2f} s wall, "
        f"{sum(times):.2f} s at reference speed",
        f"wall clock: {len(times) / sum(total.times):.4g} ops/s, "
        f"p50 {statistics.median(total.times):.4g} s",
        f"op_s.p90 has {sum(t > p90 for t in times)} of {len(times)} samples above it",
        f"failed_ops {len(total.failures) / total.attempted:.4f} fraction "
        f"({len(total.failures)} of {total.attempted} commands)",
        f"src_lines {src_line_count()} (net line count of src/, information only)",
    ]
    return total, metrics, notes


def traced(cli, workload: str, seed: int, workdir: Path):
    from tracer import Tracer

    commands = make_round(workload, seed, 0)  # always one round: exact counts repeat
    total = run_commands(cli, make_round(workload, seed, -1)[:WARMUP_COMMANDS], workdir,
                         timed=False)
    plain = run_commands(cli, commands, workdir)
    with Tracer() as tracer:
        spanned = run_commands(cli, commands, workdir)
    total.add(plain)
    total.add(spanned)
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
    overhead = sum(plain.scaled) / sum(spanned.scaled)
    metrics["trace_overhead"] = metric(overhead, "ratio")
    notes = [f"{len(commands)} commands per pass, untraced then traced"]
    if tracer.counts["realized"] != spanned.configurations:
        total.failures.append(
            f"traced configurations.realized {tracer.counts['realized']} does not match "
            f"the {spanned.configurations} configurations in the reports")
    return total, metrics, notes


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool):
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return traced(cli, workload, seed, workdir)
        return end_to_end(cli, workload, seed, seconds, workdir)
    finally:
        remove_workdir(workdir)


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()  # only when no other run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="about how much command time an end-to-end run measures, at "
                             "reference speed; it fixes the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paracon" / "cli.py").is_file():
        print(f"paracon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paracon.cli as cli

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failures, combined = 0, [], {}
    for name in names:
        total, metrics, notes = run_workload(cli, name, args.seed, args.seconds, bool(args.trace))
        attempted += total.attempted
        failures += total.failures
        print(f"workload {name}, seed {args.seed}, trace {args.trace}")
        for key, entry in metrics.items():
            print(f"  {key:34} {entry['value']:.6g} {entry['unit']}")
        for note in notes:
            print(f"  {note}")
        for failure in total.failures[:5]:
            print(f"  FAILED {failure}", file=sys.stderr)
        sys.stdout.flush()
        for key, entry in metrics.items():
            combined[key if len(names) == 1 else f"{name}.{key}"] = entry
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
