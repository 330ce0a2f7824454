"""Seeded benchmark for `superstring.solve` and the `superstring` CLI.

    python3 bench/run.py --workload absorb --seed 1 --seconds 25 --trace 0

Builds one pass of instances from the seed (see families.py), solves the
pass repeatedly for about `--seconds` seconds, checks every answer against
the stored optimal length and every witness with `verify_solution`, and
prints the end-to-end metrics (`--trace 0`, times scaled to the reference
speed of reference.py) or the per-layer metrics (`--trace 1`) as the last
line of standard output.  README.md defines them.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_SETUP_SAMPLES = 5
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

if not (SRC / "superstring" / "__init__.py").is_file():
    print(f"error: no superstring sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from families import WORKLOADS, Pass, build_pass, digest, load_expected, pass_indices  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

# per-layer metric -> span name; `*_s` metrics report summed self time per pass
SPAN_METRICS = {
    "instance.validate_s": "instance.validate",
    "mismatches.build_s": "mismatches.build",
    "cores.triple_s": "cores.triple",
    "cores.pair_s": "cores.pair",
    "subset_dp.overlap_s": "subset_dp.overlap",
    "subset_dp.build_s": "subset_dp.build",
    "solver.self_s": "solver.solve",
    "solver.verify_s": "solver.verify",
}
# per-layer metric -> field of `Solution.counters`, summed per pass
COUNTER_METRICS = {
    "mismatches.pair_build": "pair_build",
    "cores.core_scan": "core_scan",
    "subset_dp.dp_right": "dp_right",
    "subset_dp.dp_left": "dp_left",
    "solver.composition": "composition",
    "solver.window_scan": "window_scan",
}


def run_child(argv: list[str]) -> tuple[int, str, int]:
    """Run a child to completion: (exit code, stdout, its own peak RSS in KiB)."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
    ) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def cli_args(path: Path, k: int) -> list[str]:
    return ["--input", str(path), "--k", str(k), "--reconstruct", "--verify", "--json", "--counters"]


def api_solve(batch: Pass, position: int):
    """(seconds, Solution or the exception raised) for one solve through the API."""
    start = perf_counter()
    try:
        result = batch.pkg.solve(batch.instances[position], reconstruct=True)
    except Exception as exc:  # a solve that raises is a failed solve
        result = exc
    return perf_counter() - start, result


def subprocess_solve(batch: Pass, position: int):
    """One fresh `python -m superstring.cli` process: (seconds, (exit code, stdout, peak RSS in KiB))."""
    argv = [sys.executable, "-m", "superstring.cli", *cli_args(batch.paths[position], batch.instances[position].k)]
    start = perf_counter()
    result = run_child(argv)
    return perf_counter() - start, result


def inprocess_cli_solve(batch: Pass, position: int):
    """The CLI's `run` called in this process, with the same arguments: (seconds, (exit code, stdout))."""
    out, err = io.StringIO(), io.StringIO()
    argv = cli_args(batch.paths[position], batch.instances[position].k)
    start = perf_counter()
    try:
        code = batch.cli.run(batch.cli.config_from_args(argv), out=out, err=err)
    except Exception as exc:  # a run that raises is a failed solve
        code = repr(exc)
    return perf_counter() - start, (code, out.getvalue())


def run_pass(solve_one, batch: Pass):
    """Solve every instance of the pass once, in order: (times, results)."""
    times, results = [], []
    for position in range(len(batch.instances)):
        elapsed, result = solve_one(batch, position)
        times.append(elapsed)
        results.append(result)
    return times, results


def as_solution(batch: Pass, result):
    """The Solution a result reports, or None when the solve itself failed."""
    if isinstance(result, batch.pkg.Solution):
        return result
    if not isinstance(result, tuple) or result[0] != 0:
        return None
    try:
        payload = json.loads(result[1])
        return batch.pkg.Solution(
            length=payload["length"],
            mistake_index=payload["mistake_string_index"],
            witness=payload["witness"],
            offsets=payload["offsets"],
            mismatch_positions=payload["mismatch_positions"],
            counters=batch.pkg.Counters(**{n: c["count"] for n, c in payload["counters"].items()}),
        )
    except (ValueError, KeyError, TypeError):
        return None


def solve_failed(batch: Pass, instance, want: int, result) -> bool:
    solution = as_solution(batch, result)
    if solution is None or solution.length != want or solution.witness is None:
        return True
    return bool(batch.pkg.verify_solution(instance, solution))


def signature(batch: Pass, result):
    """What traced and untraced solves must agree on: answer, witness, counters."""
    solution = as_solution(batch, result)
    if solution is None:
        return repr(result)
    return (
        solution.length,
        solution.mistake_index,
        solution.witness,
        solution.offsets,
        solution.mismatch_positions,
        dataclasses.astuple(solution.counters),
    )


def pass_counters(batch: Pass, results) -> dict[str, int]:
    totals = dict.fromkeys(COUNTER_METRICS, 0)
    for result in results:
        solution = as_solution(batch, result)
        if solution is None:
            continue
        for metric, field in COUNTER_METRICS.items():
            totals[metric] += getattr(solution.counters, field)
    return totals


def trace_targets(batch: Pass):
    """(module, attribute, span name) for the public function of each layer."""
    solver, cores, cli = batch.pkg.solver, batch.pkg.cores, batch.cli
    return [
        (solver, "validate", "instance.validate"),
        (cli, "validate", "instance.validate"),
        (solver, "build_mismatch_table", "mismatches.build"),
        (cores, "build_triple_cores", "cores.triple"),
        (cores, "build_pair_cores", "cores.pair"),
        (solver, "build_overlap_table", "subset_dp.overlap"),
        (solver, "build_subset_table", "subset_dp.build"),
        (solver, "verify_solution", "solver.verify"),
        (cli, "verify_solution", "solver.verify"),
        (batch.pkg, "solve", "solver.solve"),
        (cli, "solve", "solver.solve"),
        (cli, "run", "cli.run"),
    ]


def interpreter_probe() -> tuple[float, float]:
    """Median bare interpreter start, and median extra time to import superstring.cli."""
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        for code, into in (("pass", bare), ("import superstring.cli", imported)):
            start = perf_counter()
            if run_child([sys.executable, "-c", code])[0] != 0:
                raise SystemExit(f"error: probe child failed: python -c {code!r}")
            into.append(perf_counter() - start)
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    With TAIL_BEYOND samples or fewer no percentile qualifies; the maximum
    is reported as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def solve_metrics(times: list[float]) -> dict:
    """Throughput, median and tail over per-instance solve times."""
    return {
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "solve_p50_s": (statistics.median(times), "s"),
        "solve_tail_s": (tail(times)[0], "s"),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Run:
    """Everything one invocation measures and checks."""

    def __init__(self, workload, seed: int, seconds: float, limit: int | None, work_dir: Path):
        self.workload = workload
        self.seconds = seconds
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = None  # per-repeat times of an untraced run, for the record
        stored = load_expected()[workload.name]
        self.indices = pass_indices(workload, seed, [row[2] for row in stored], limit)
        self.batch = build_pass(workload, self.indices, work_dir)
        self.expected = []
        for index, instance in zip(self.indices, self.batch.instances):
            length, stored_digest, _ = stored[index]
            if stored_digest != digest(instance):
                raise SystemExit(f"error: {workload.name}[{index}] differs from the recorded instance")
            self.expected.append(length)

    def setup_sample(self) -> float:
        """Seconds one cold set-up takes, timed in a fresh interpreter."""
        argv = [sys.executable, str(BENCH / "setup_once.py"), self.workload.name, str(self.work_dir / "setup")]
        code, stdout, _ = run_child(argv + [str(index) for index in self.indices])
        if code != 0:
            raise SystemExit("error: set-up child failed")
        return float(stdout)

    def check(self, results, batch: Pass | None = None, expected=None) -> None:
        """Count attempts and failures; run outside any timed region."""
        batch = batch or self.batch
        for instance, want, result in zip(batch.instances, expected or self.expected, results):
            self.attempted += 1
            if solve_failed(batch, instance, want, result):
                self.failed += 1

    def untraced(self) -> tuple[dict, dict]:
        """End-to-end metrics, every time scaled to the reference speed (reference.py).

        The reference computation runs after every solve and every set-up
        sample; each of those is scaled by the mean of the reference times
        just before and just after it.
        """
        via_cli = self.workload.via_cli
        solve_one = subprocess_solve if via_cli else api_solve
        size = len(self.batch.instances)
        scaled = [[] for _ in range(size)]  # per instance, one entry per repeat
        wall = [[] for _ in range(size)]
        setups, setup_walls, refs, walls, child_peaks = [], [], [reference.timed()], [], [0]

        def scale(elapsed: float) -> float:
            refs.append(reference.timed())
            return elapsed * reference.REFERENCE_S / ((refs[-2] + refs[-1]) / 2)

        # Whole passes, then as much of one more as fits in the time: every
        # instance is solved at least once, and repeat counts differ by at most one.
        begin = start = perf_counter()
        results = []
        while True:
            position = len(results)
            elapsed, result = solve_one(self.batch, position)
            scaled[position].append(scale(elapsed))
            wall[position].append(elapsed)
            results.append(result)
            if via_cli:
                child_peaks.append(result[2])
            if len(results) == size:
                walls.append(perf_counter() - start)
                self.check(results)
                results = []
                # set-up samples interleave with the passes, so they span the run
                setup_walls.append(self.setup_sample())
                setups.append(scale(setup_walls[-1]))
                start = perf_counter()
            if walls and perf_counter() - begin + wall[len(results)][-1] > self.seconds:
                break
        self.check(results)
        while len(setups) < MIN_SETUP_SAMPLES:
            refs.append(reference.timed())
            setup_walls.append(self.setup_sample())
            setups.append(scale(setup_walls[-1]))
        peak_kib = max(child_peaks) if via_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        # each instance's time is the median of its repeats
        per_instance = [statistics.median(repeats) for repeats in scaled]
        metrics = solve_metrics(per_instance)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
        unscaled = solve_metrics([statistics.median(repeats) for repeats in wall])
        unscaled["setup_s"] = (statistics.median(setup_walls), "s")
        facts = {
            "passes": len(walls),
            "solves": sum(len(repeats) for repeats in wall),
            "samples": size,
            "tail_percentile": tail(per_instance)[1],
            "reference_s": statistics.median(refs),
            "wall": {name: value for name, (value, _) in unscaled.items()},
            "pass_wall_s": walls,
            "setup_samples_s": setups,
        }
        self.samples = {"scaled_s": scaled, "wall_s": wall, "reference_s": refs, "setup_wall_s": setup_walls}
        return metrics, facts

    def traced(self) -> tuple[dict, dict, list]:
        solve_one = inprocess_cli_solve if self.workload.via_cli else api_solve
        tracer = Tracer()
        targets = trace_targets(self.batch)
        plain_passes, traced_passes, self_times, call_counts = [], [], [], []
        first_signatures = None
        begin = perf_counter()
        while True:
            plain_times, plain = run_pass(solve_one, self.batch)
            first = len(tracer.spans)
            with tracer.installed(targets):
                traced_times, results = run_pass(solve_one, self.batch)
            plain_passes.append(plain_times)
            traced_passes.append(traced_times)
            self_times.append(tracer.self_times(first))
            call_counts.append(tracer.calls(first))
            self.check(plain)
            self.check(results)
            signatures = [signature(self.batch, r) for r in plain + results]
            first_signatures = first_signatures or signatures[: len(plain)]
            if signatures != first_signatures * 2:
                self.problems.append("traced and untraced passes disagree")
            pair = statistics.median(sum(p) + sum(t) for p, t in zip(plain_passes, traced_passes))
            if perf_counter() - begin + pair > self.seconds:
                break
        if any(counts != call_counts[0] for counts in call_counts):
            self.problems.append("span counts differ between traced passes")

        metrics = {
            metric: (statistics.median(t.get(span, 0.0) for t in self_times), "s")
            for metric, span in SPAN_METRICS.items()
        }
        metrics["instance.validate_calls"] = (call_counts[0].get("instance.validate", 0), "count")
        counters = pass_counters(self.batch, results)
        metrics.update({metric: (value, "count") for metric, value in counters.items()})
        start_s, import_s = interpreter_probe()
        if self.workload.via_cli:
            cli_self = statistics.median(t["cli.run"] for t in self_times)
        else:
            cli_self = self.cli_probe(targets)
        metrics["cli.start_s"] = (start_s, "s")
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.self_s"] = (cli_self, "s")
        plain_best = sum(min(repeats) for repeats in zip(*plain_passes))
        traced_best = sum(min(repeats) for repeats in zip(*traced_passes))
        metrics["trace.overhead_ratio"] = (plain_best / traced_best, "ratio")
        facts = {"passes": len(traced_passes), "samples": len(results)}
        return metrics, facts, tracer.spans

    def cli_probe(self, targets) -> float:
        """Self time of one in-process CLI run over the pass's first instance."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / "probe.txt"
        instance = self.batch.instances[0]
        path.write_text(self.batch.pkg.serialize_instance(instance), encoding="utf-8")
        probe = dataclasses.replace(self.batch, instances=[instance], paths=[path])
        tracer = Tracer()
        with tracer.installed(targets):
            _, results = run_pass(inprocess_cli_solve, probe)
        self.check(results, probe, self.expected[:1])
        return tracer.self_times()["cli.run"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None, help="cut the pass short (smoke checks only)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # Every import then reads byte-compiled files, as from an installed
    # package, whatever earlier runs or PYTHONDONTWRITEBYTECODE left behind.
    for directory, levels in ((SRC / "superstring", 10), (BENCH, 0)):
        if not compileall.compile_dir(directory, maxlevels=levels, quiet=1):
            raise SystemExit(f"error: cannot byte-compile {directory}")
    work_dir = OUT / f"tmp-{os.getpid()}"
    try:
        run = Run(workload, args.seed, args.seconds, args.instances, work_dir)
        if args.trace:
            metrics, facts, spans = run.traced()
        else:
            (metrics, facts), spans = run.untraced(), None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    facts.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        instances=len(run.batch.instances),
        attempted=run.attempted,
        failed=run.failed,
        failed_ratio=run.failed / run.attempted,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        platform=platform.platform(),
        commit=git_commit(),
    )
    for problem in run.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print("facts " + json.dumps(facts))

    OUT.mkdir(exist_ok=True)
    record = {"facts": facts, "metrics": metrics, "problems": run.problems, "samples": run.samples, "spans": spans}
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
