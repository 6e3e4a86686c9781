"""schurcalc benchmark: exact queries in a single-client closed loop.

    python3 perfbench/run.py --workload cli-deck --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The program is built from ``src/`` (its
bytecode compiled in place, as an installed package has it) and queried
one question at a time: the next query is sent only after the previous
answer arrived.

A run executes the seed's fixed batch in rounds, each in fresh
interpreters, so lru caches start empty as a user's do and no round warms
the next. With ``--trace 0`` it reports the end-to-end metrics of the
untraced rounds; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones. Answers are
checked against ``refs/`` after each one arrives; checking is not part of a
query's latency. Times are reported adjusted to a reference machine speed,
probed beside every query (see ``speed.py``); the wall times are printed
too. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import answers
import metrics
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_DIR = ".perfbench_build"

SETUP_PER_ROUND = 8  # timed interpreter starts before each untraced round
QUERY_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0


class SetupError(RuntimeError):
    """The checkout holds no buildable program, or the benchmark is stale."""


@dataclass
class Finished:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


def run_process(argv, env, stdin: bytes | None = None, timeout: float = QUERY_TIMEOUT_S) -> Finished:
    """Run one process to completion and return its output and peak RSS."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    # negative when a signal ended it: the timeout's kill, the OOM killer, a crash
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, out, err[0], usage.ru_maxrss)


class Build:
    """The program of one checkout: compiled bytecode, entry point, environment."""

    def __init__(self, root: Path):
        src = root / "src"
        pyproject = root / "pyproject.toml"
        if not (src / "schurcalc" / "cli.py").is_file() or not pyproject.is_file():
            raise SetupError(f"no schurcalc source under {root}")
        entry = re.search(
            r'^schurcalc\s*=\s*"([\w.]+):(\w+)"', pyproject.read_text(), re.MULTILINE
        )
        if entry is None:
            raise SetupError("pyproject.toml declares no schurcalc entry point")
        self.dir = root / BUILD_DIR
        (self.dir / "bin").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
        compiled = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(src), str(BENCH)],
            env=self.env, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if compiled.returncode != 0:
            raise SetupError("compiling the sources failed: " + compiled.stderr.decode())
        # the console script an installed package gets
        self.launcher = self.dir / "bin" / "schurcalc"
        self.launcher.write_text(
            f"import sys\nfrom {entry[1]} import {entry[2]}\n"
            f"if __name__ == '__main__':\n    sys.exit({entry[2]}())\n"
        )
        self.trace_file = self.dir / "trace.json"

    def import_time(self) -> float:
        """Wall time of a fresh interpreter that imports schurcalc.cli."""
        start = time.perf_counter()
        proc = run_process([sys.executable, "-c", "import schurcalc.cli"], self.env)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError("import schurcalc.cli failed: " + proc.stderr.decode())
        return elapsed

    def run_cli(self, argv: list[str], traced: bool) -> Finished:
        if not traced:
            return run_process([sys.executable, str(self.launcher), *argv], self.env)
        env = dict(self.env, PERFBENCH_TRACE_OUT=str(self.trace_file))
        return run_process([sys.executable, str(BENCH / "cli_traced.py"), *argv], env)

    def read_trace(self) -> dict:
        with open(self.trace_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.trace_file.unlink()
        return doc

    def run_session(self, queries: list, traced: bool, timeout: float) -> Finished:
        request = json.dumps({"queries": queries, "trace": traced}).encode()
        return run_process(
            [sys.executable, str(BENCH / "session_worker.py")], self.env, request, timeout
        )


@dataclass
class Round:
    """One pass over the batch. ``batch_s`` and ``latencies`` are adjusted
    to the reference speed; the ``wall_`` fields are as measured."""

    traced: bool
    wall_batch_s: float
    wall_latencies: list[float]
    latencies: list[float]
    maxrss_kib: int
    failures: list[tuple[str, str, bool]] = field(default_factory=list)
    trace: dict | None = None
    import_s: float = 0.0
    import_total_s: float = 0.0
    output_bytes: int = 0
    setup_samples: list[float] = field(default_factory=list)
    wall_setup_samples: list[float] = field(default_factory=list)

    @property
    def batch_s(self) -> float:
        return self.wall_batch_s * sum(self.latencies) / sum(self.wall_latencies)


def load_refs(workload: str) -> dict:
    path = BENCH / "refs" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def verdict(ref: dict, returncode: int, digest: str | None) -> str | None:
    """Why an answer is wrong, or None when it matches its reference."""
    if returncode < 0:
        return f"killed by signal {-returncode}, expected exit {ref['exit']}"
    if returncode != ref["exit"]:
        return f"exit {returncode}, expected {ref['exit']}"
    if returncode == 0 and digest != ref["digest"]:
        return "answer differs from the reference"
    return None


def _failure(rnd: Round, key: str, ref: dict, why: str | None) -> None:
    if why is not None:
        rnd.failures.append((key, why, bool(ref.get("known_defect"))))


def cli_round(build: Build, queries: list, refs: dict, traced: bool) -> Round:
    rnd = Round(traced, 0.0, [], [], 0)
    summaries, imports = [], []
    probes, probing = [speed.probe()], 0.0
    start = time.perf_counter()
    for argv in queries:
        sent = time.perf_counter()
        proc = build.run_cli(argv, traced)
        rnd.wall_latencies.append(time.perf_counter() - sent)
        rnd.maxrss_kib = max(rnd.maxrss_kib, proc.maxrss_kib)
        rnd.output_bytes += len(proc.stdout)
        digest = None
        if proc.returncode == 0:
            try:
                digest = answers.digest(answers.cli_answer(proc.stdout))
            except ValueError:
                digest = "unparseable output"
        key = workloads.query_key(argv)
        _failure(rnd, key, refs[key], verdict(refs[key], proc.returncode, digest))
        if traced and proc.returncode >= 0:  # a killed process wrote no trace
            doc = build.read_trace()
            summaries.append(doc["trace"])
            imports.append(doc["import_s"])
        begun = time.perf_counter()
        probes.append(speed.probe())
        probing += time.perf_counter() - begun
    rnd.wall_batch_s = time.perf_counter() - start - probing
    rnd.latencies = speed.adjusted(rnd.wall_latencies, probes, range(len(queries)))
    if traced:
        rnd.trace = metrics.merge_summaries(summaries)
        rnd.import_s = statistics.median(imports)
        rnd.import_total_s = sum(imports)
    return rnd


def session_round(build: Build, queries: list, refs: dict, traced: bool, timeout: float) -> Round:
    proc = build.run_session(queries, traced, timeout)
    if proc.returncode != 0:
        raise SetupError(
            f"session worker ended with {proc.returncode}:\n" + proc.stderr.decode()
        )
    doc = json.loads(proc.stdout)
    latencies = speed.adjusted(doc["latencies"], doc["probes"], doc["probe_at"])
    rnd = Round(traced, doc["batch_s"], doc["latencies"], latencies, proc.maxrss_kib)
    for query, digest, error in zip(queries, doc["digests"], doc["errors"]):
        key = workloads.query_key(query)
        why = error if error is not None else verdict(refs[key], 0, digest)
        _failure(rnd, key, refs[key], why)
    rnd.trace = doc["trace"]
    rnd.import_s = doc["import_s"]
    return rnd


def end_to_end(rounds: list[Round]) -> tuple[dict, str]:
    """The six end-to-end metrics of the untraced rounds, and a note with
    the tail's percentile, fail_ratio and the unadjusted wall times."""
    plain = [r for r in rounds if not r.traced]
    setup_s = statistics.median(x for r in plain for x in r.setup_samples)
    latencies = [x for r in plain for x in r.latencies]
    beyond = metrics.TAIL_BEYOND * len(plain)
    tail, percentile = metrics.tail(latencies, beyond)
    wall = [x for r in plain for x in r.wall_latencies]
    attempted = len(latencies)
    failed = sum(len(r.failures) for r in plain)
    values = {
        "batch_s": (statistics.median([r.batch_s for r in plain]), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (max(r.maxrss_kib for r in plain) / 1024, "MiB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    note = (
        f"latency_tail_s is p{percentile:.1f} of {attempted} queries in {len(plain)} rounds "
        f"({metrics.TAIL_BEYOND} per round beyond it); "
        f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}\n"
        f"wall times, unadjusted: batch_s {statistics.median(r.wall_batch_s for r in plain):.6g}  "
        f"latency_p50_s {statistics.median(wall):.6g}  "
        f"latency_tail_s {metrics.tail(wall, beyond)[0]:.6g}  "
        f"setup_s {statistics.median(x for r in plain for x in r.wall_setup_samples):.6g}"
    )
    return values, note


def per_layer(rounds: list[Round]) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced rounds) and a self-time breakdown."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [metrics.layer_metrics(r.trace, r.import_s, r.output_bytes) for r in traced]
    values = {
        name: (statistics.median([m[name][0] for m in per_round]), unit)
        for name, (_value, unit) in per_round[0].items()
    }
    values["trace.overhead_ratio"] = (
        statistics.median([r.batch_s for r in traced]) / statistics.median([r.batch_s for r in plain]),
        "ratio",
    )
    return values, breakdown(traced[0])


def breakdown(rnd: Round) -> list[str]:
    """Share of a traced round's query time held by each layer.

    On cli-deck the query time includes each process's interpreter start
    and import; in a session it is the calls alone.
    """
    total = sum(rnd.wall_latencies)
    by_layer: dict[str, float] = {}
    for name, entry in rnd.trace["spans"].items():
        layer = "cli.main" if name.startswith("cli.") else name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
    if rnd.import_total_s:
        by_layer["cli.import"] = rnd.import_total_s
    by_layer["outside spans"] = total - sum(by_layer.values())
    return [
        f"  {layer:<48} {seconds:9.3f} s  {100 * seconds / total:5.1f} %"
        for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1])
    ]


def timed_imports(build: Build) -> tuple[list[float], list[float]]:
    """SETUP_PER_ROUND interpreter starts, timed as measured and adjusted."""
    probes, wall = [speed.probe()], []
    for _ in range(SETUP_PER_ROUND):
        wall.append(build.import_time())
        probes.append(speed.probe())
    return wall, speed.adjusted(wall, probes, range(len(wall)))


def run_rounds(build: Build, workload: str, queries: list, refs: dict,
               seconds: float, trace: bool, started: float) -> list[Round]:
    """Rounds while the next one fits in --seconds, alternating untraced and
    traced ones when tracing; at least one round of each kind that is
    reported. Each untraced round is preceded by SETUP_PER_ROUND timed
    interpreter starts, so the set-up samples are spread over the run."""
    rounds: list[Round] = []
    least = 2 if trace else 1
    measuring = time.perf_counter()
    while True:
        used = time.perf_counter() - measuring
        if len(rounds) >= least:
            per_round = used / len(rounds)
            left = RUN_BUDGET_S - (time.perf_counter() - started)
            if used + per_round > seconds or 1.3 * per_round > left:
                return rounds
        traced = trace and len(rounds) % 2 == 1
        wall_setup, setup = ([], []) if trace else timed_imports(build)
        if workload == "cli-deck":
            rnd = cli_round(build, queries, refs, traced)
        else:
            left = RUN_BUDGET_S - (time.perf_counter() - started)
            rnd = session_round(build, queries, refs, traced, left)
        rnd.wall_setup_samples, rnd.setup_samples = wall_setup, setup
        rounds.append(rnd)


def silent_spans(workload: str, rounds: list[Round]) -> list[str]:
    """Expected spans that recorded no call in some traced round."""
    return sorted({
        name
        for r in rounds if r.traced
        for name in tracing.EXPECTED_SPANS[workload]
        if r.trace["spans"].get(name, {}).get("calls", 0) == 0
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        build = Build(ROOT)
        refs = load_refs(args.workload)
        queries = workloads.batch(args.workload, args.seed)
        missing = [q for q in queries if workloads.query_key(q) not in refs]
        if missing:
            raise SetupError(f"no reference for {len(missing)} queries, e.g. {missing[0]}")
        if args.trace:
            sys.path.insert(0, str(ROOT / "src"))
            tracing.check_layers()
        rounds = run_rounds(
            build, args.workload, queries, refs, args.seconds, bool(args.trace), started
        )
    except tracing.LayerMissingError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except (SetupError, OSError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    silent = silent_spans(args.workload, rounds)
    if silent:
        print(f"perfbench: spans with zero calls on {args.workload}: {', '.join(silent)}",
              file=sys.stderr)
        return 3

    failures = [f for r in rounds for f in r.failures]
    print(
        f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
        f"nproc {len(os.sched_getaffinity(0))}  rounds {len(rounds)}  "
        f"queries/round {len(queries)}  trace {args.trace}"
    )
    for (key, why, known), times in Counter(failures).items():
        print(f"  {'known defect' if known else 'WRONG'} ({times}x): {key}: {why}")
    if args.trace:
        values, lines = per_layer(rounds)
        print("self time by layer, first traced round:")
        print("\n".join(lines))
    else:
        values, note = end_to_end(rounds)
        print(note)
    for name, (value, unit) in values.items():
        print(f"{name:<40} {value:.6g} {unit}")
    result = {
        "correct": all(known for _key, _why, known in failures),
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
