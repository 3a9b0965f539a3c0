"""minword benchmark: four CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload triple-search --seed 1 --seconds 20 --trace 0

Run it from the repository root.  ``--trace 0`` spawns real ``python -m
minword.cli`` processes and prints the end-to-end metrics, their CPU times
normalized by the speed probe in speed.py; ``--trace 1``
runs the same commands in this process under span tracing and prints the
per-layer metrics.  The last line of standard output is the result object;
the line before it is the run record (seed, interpreter, CPU, source size).
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the machine does
SETUP_SPAWNS = 15

END_TO_END = {
    "run_s": "s",
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_ms_p50": "ms",
    "query_ms_tail": "ms",
}

PER_LAYER = {
    "enumeration.raw_dfas": "count",
    "enumeration.languages": "count",
    "enumeration.tuples": "count",
    "enumeration.enumerate_s": "s",
    "enumeration.canonical_s": "s",
    "enumeration.scan_s": "s",
    "enumeration.us_per_tuple": "us",
    "enumeration.self_s": "s",
    "minimize.calls": "count",
    "minimize.s": "s",
    "minimize.us_per_call": "us",
    "minimize.dedupe_ratio": "ratio",
    "minimize.self_s": "s",
    "shortest.calls": "count",
    "shortest.s": "s",
    "shortest.us_per_call": "us",
    "shortest.us_per_state": "us",
    "shortest.self_s": "s",
    "product.reachable_states": "count",
    "product.self_s": "s",
    "constructions.s": "s",
    "constructions.self_s": "s",
    "reports.self_s": "s",
    "automaton.validate_s": "s",
    "automaton.accepts_s": "s",
    "automaton.format_word_s": "s",
    "automaton.self_s": "s",
    "interchange.dumps_calls": "count",
    "interchange.dumps_s": "s",
    "interchange.load_s": "s",
    "interchange.bytes_read": "bytes",
    "interchange.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.bench_self_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
}


# ---------------------------------------------------------------- workloads


@dataclass
class Command:
    """One CLI invocation and the check its exit code and stdout must pass."""

    argv: list[str]
    check: Callable[[int, bytes], bool]


def passes_check(cmd: Command, code: int, out: bytes) -> bool:
    """A check that trips over malformed output fails the operation rather
    than the benchmark."""
    try:
        return bool(cmd.check(code, out))
    except (KeyError, IndexError, TypeError, ValueError):
        return False


@dataclass
class Plan:
    """A workload's commands for one pass, and the work one pass does."""

    commands: list[Command]
    work: int
    unit: str


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError:
        return None


def search_check(digest: str, expected: dict) -> Callable[[int, bytes], bool]:
    """Exit 0, stdout byte-identical to the seed commit's, and the frozen
    result fields."""

    def check(code: int, out: bytes) -> bool:
        if code != 0 or hashlib.sha256(out).hexdigest() != digest:
            return False
        doc = _json(out)
        return doc is not None and all(doc.get(k) == v for k, v in expected.items())

    return check


def verify_check(code: int, out: bytes) -> bool:
    if code != 0 or hashlib.sha256(out).hexdigest() != VERIFY_DIGEST:
        return False
    doc = _json(out)
    if doc is None or doc.get("all_passed") is not True or len(doc["rows"]) != 1035:
        return False
    return all(r["lss"] == r["m"] * r["n"] - 1 for r in doc["rows"])


# sha256 of the structured stdout, recorded at the commit that introduced
# this benchmark; structured output must stay byte-identical.
TRIPLE_DIGEST = "9efe75dc9cd596b72dee55bd5586ccc4eb2ec884efb45524b79218e96aa59309"
LANG4_DIGEST = "937efcece052d03c86bd59791dcc03337f83da35df75b95aeda8c981c79b2bb6"
VERIFY_DIGEST = "39ec4c3de7626a2d24bbba92d5537da30d82a9cb7617a1bd78ced8e12d7fc7de"


def plan_triple(rng: random.Random, files: Path) -> Plan:
    expected = {
        "max_lss": 7,
        "attained": False,
        "languages_per_size": [26, 26, 1054],
        "tuples_examined": 658_125,
    }
    argv = ["search", "--sizes", "2,2,3", "--format", "structured"]
    return Plan([Command(argv, search_check(TRIPLE_DIGEST, expected))], 658_125, "tuples")


def plan_languages(rng: random.Random, files: Path) -> Plan:
    expected = {"languages_per_size": [57_068], "max_lss": 3}
    argv = ["search", "--sizes", "4", "--format", "structured"]
    return Plan([Command(argv, search_check(LANG4_DIGEST, expected))], 57_068, "languages")


def plan_verify(rng: random.Random, files: Path) -> Plan:
    argv = ["verify", "--max-n", "45", "--format", "structured"]
    return Plan([Command(argv, verify_check)], 1035, "pairs")


# ------------------------------------------------------- generated DFA files

LSS_ALPHABET = ["a", "b", "c"]
LSS_QUERIES = 20
LSS_EMPTY = 4
# Components of an empty query have a fixed size (before the parity
# counter doubles it): the empty queries set query_ms_tail, and drawing
# their sizes too would spread it across seeds by about half.
LSS_EMPTY_STATES = 75


def random_dfa(rng: random.Random, states: int, accept_frac: float) -> dict:
    delta = [[rng.randrange(states) for _ in LSS_ALPHABET] for _ in range(states)]
    accepting = sorted(rng.sample(range(states), max(1, round(states * accept_frac))))
    return {"states": states, "alphabet": LSS_ALPHABET, "initial": 0, "accepting": accepting, "delta": delta}


def with_parity(doc: dict, parity: int) -> dict:
    """doc times a counter of the first letter mod 2, accepting only when
    the count has the given parity.  Two components with opposite parity
    have an empty intersection, and the lss BFS must walk their whole
    reachable product to prove it."""
    delta = [
        [2 * t + (p ^ (c == 0)) for c, t in enumerate(row)]
        for row in doc["delta"]
        for p in (0, 1)
    ]
    accepting = [2 * q + parity for q in doc["accepting"]]
    return dict(doc, states=2 * doc["states"], accepting=accepting, delta=delta)


def lss_query(rng: random.Random, empty: bool) -> list[dict]:
    if empty:
        return [
            with_parity(random_dfa(rng, LSS_EMPTY_STATES, 0.2), 0),
            with_parity(random_dfa(rng, LSS_EMPTY_STATES, 0.2), 1),
        ]
    if rng.random() < 0.5:
        return [random_dfa(rng, rng.randint(20, 200), 0.1) for _ in range(2)]
    return [random_dfa(rng, rng.randint(10, 30), 0.2) for _ in range(3)]


def write_dfas(docs: list[dict], files: Path, tag: str) -> list[str]:
    paths = []
    for i, doc in enumerate(docs):
        path = files / f"{tag}-{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def lss_check(paths: list[str]) -> Callable[[int, bytes], bool]:
    """The reported length (or emptiness) must match a BFS over the explicit
    product automaton, and the witness must be accepted by every component."""
    oracle: list = []

    def check(code: int, out: bytes) -> bool:
        # Imported here, not at the top: the traced run times the first
        # import of minword itself.
        from minword import accepts, load_path, product, shortest_accepted

        if not oracle:
            dfas = [load_path(p) for p in paths]
            oracle.extend((dfas, shortest_accepted(product(dfas).dfa)))
        dfas, expected = oracle
        doc = _json(out)
        if doc is None or code != (1 if expected is None else 0):
            return False
        if expected is None:
            return doc["empty"] is True and doc["length"] is None
        word = tuple(LSS_ALPHABET.index(ch) for ch in doc["witness"])
        return (
            doc["empty"] is False
            and doc["length"] == expected.length == len(word)
            and all(accepts(d, word) for d in dfas)
        )

    return check


def plan_lss(rng: random.Random, files: Path) -> Plan:
    kinds = [True] * LSS_EMPTY + [False] * (LSS_QUERIES - LSS_EMPTY)
    rng.shuffle(kinds)
    commands = []
    for i, empty in enumerate(kinds):
        paths = write_dfas(lss_query(rng, empty), files, f"q{i}")
        argv = ["lss", "--format", "structured"]
        for p in paths:
            argv += ["--dfa", p]
        commands.append(Command(argv, lss_check(paths)))
    return Plan(commands, LSS_QUERIES, "queries")


WORKLOADS: dict[str, Callable[[random.Random, Path], Plan]] = {
    "triple-search": plan_triple,
    "languages-4": plan_languages,
    "pair-verify": plan_verify,
    "lss-files": plan_lss,
}


# ------------------------------------------------------------------ helpers


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it, which is
    the 11th-largest sample.  With fewer than eleven samples no percentile
    has ten beyond it, and the median stands in for it."""
    if len(samples) < 11:
        return statistics.median(samples)
    return sorted(samples)[-11]


def run_record(workload: str, seed: int) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "minword").rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


# ------------------------------------------------------------ untraced runs


@dataclass
class Spawned:
    code: int
    out: bytes
    start: float
    end: float
    cpu: float
    rss_kb: int

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], work: Path, deadline: float) -> Spawned:
    """Run one CLI process from a fresh empty directory; time spawn to exit
    and take its CPU time (user + system) from ``os.wait4``."""
    cwd = Path(tempfile.mkdtemp(dir=work))
    out_path, err_path = work / f"{cwd.name}.out", work / f"{cwd.name}.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "minword.cli", *argv], cwd=cwd, stdout=out, stderr=err, env=env
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = out_path.read_bytes()
    stderr = err_path.read_bytes()
    if stderr and proc.returncode not in (0, 1):
        print(f"{' '.join(argv[:3])}: {stderr[:300].decode(errors='replace')}", file=sys.stderr)
    for path in (out_path, err_path):
        path.unlink()
    shutil.rmtree(cwd)
    cpu = usage.ru_utime + usage.ru_stime
    return Spawned(proc.returncode, data, start, end, cpu, usage.ru_maxrss)


def timed_run(plan: Plan, seconds: int, work: Path, deadline: float) -> tuple[dict, dict, int, int]:
    """Repeat passes while the next one is expected to end within ``seconds``
    of wall time (at least one pass).

    Every time metric is a child's CPU time normalized by the speed probe
    (see speed.py): on a shared host the CPU's speed drifts twofold within
    seconds, and the probe, sampling the same CPU while the child runs,
    takes that drift out.  The ``--help`` spawns for setup_s are spread over
    the run, so that their median does not hang on one stretch of it."""
    attempted = failed = 0
    setup: list[float] = []
    setup_wall: list[float] = []
    factors: list[float] = []

    with SpeedProbe() as probe:

        def timed(argv: list[str]) -> tuple[Spawned, float]:
            r = spawn(argv, work, deadline)
            factor = probe.factor(r.start, r.end)
            factors.append(factor)
            return r, r.cpu / factor

        def setup_spawn() -> None:
            nonlocal attempted, failed
            r, norm = timed(["--help"])
            attempted += 1
            failed += not (r.code == 0 and b"usage: minword" in r.out)
            setup.append(norm)
            setup_wall.append(r.wall)

        spawn(["--help"], work, deadline)  # writes the bytecode cache; not timed
        first = SETUP_SPAWNS // 3
        for _ in range(first):
            setup_spawn()

        passes: list[float] = []
        walls: list[float] = []
        latencies: list[float] = []
        rss: list[int] = []
        while not walls or (
            sum(walls) + walls[-1] <= seconds and time.monotonic() + 2 * walls[-1] < deadline
        ):
            pass_s = pass_wall = 0.0
            for cmd in plan.commands:
                r, norm = timed(cmd.argv)
                attempted += 1
                failed += not passes_check(cmd, r.code, r.out)
                pass_s += norm
                pass_wall += r.wall
                latencies.append(norm)
                rss.append(r.rss_kb)
                due = first + (SETUP_SPAWNS - first) * min(1.0, (sum(walls) + pass_wall) / seconds)
                while len(setup) < due:
                    setup_spawn()
            passes.append(pass_s)
            walls.append(pass_wall)
        while len(setup) < SETUP_SPAWNS:
            setup_spawn()

    run_s = statistics.median(passes)
    metrics = {
        "run_s": run_s,
        "throughput": plan.work / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss) / 1024,
        "query_ms_p50": statistics.median(latencies) * 1000,
        "query_ms_tail": tail(latencies) * 1000,
    }
    info = {
        "passes": len(passes),
        "pass_s": passes,
        "pass_wall_s": walls,
        "setup_wall_s": statistics.median(setup_wall),
        "speed_factor_median": statistics.median(factors),
        "speed_probe_cpu": probe.cpu,
        "speed_samples": len(probe.steps),
        "work_per_pass": plan.work,
        "work_unit": plan.unit,
        "query_samples": len(latencies),
        "tail_rank_from_top": 11 if len(latencies) >= 11 else None,
        "setup_spawns": len(setup),
    }
    return metrics, info, attempted, failed


# ------------------------------------------------------------- traced run


def in_process_pass(plan: Plan, main) -> tuple[float, list[tuple[int, bytes]]]:
    outputs = []
    start = time.perf_counter()
    for cmd in plan.commands:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                code = main(cmd.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        outputs.append((code, buf.getvalue().encode()))
    return time.perf_counter() - start, outputs


def traced_run(plan: Plan, rng: random.Random, files: Path) -> tuple[dict, dict, int, int]:
    from spans import Patch, Spans, Summary

    start = time.perf_counter()
    import minword.cli as cli

    import_s = time.perf_counter() - start
    import minword

    canonical = sys.modules["minword.enumeration"].canonical_languages

    # Probe inputs: the same small calls on every workload, so that each
    # layer is exercised and no layer time is identically zero.
    m = rng.randint(2, 8)
    n = rng.randint(m, 12)
    probe_paths = write_dfas(
        [
            with_parity(random_dfa(rng, rng.randint(60, 100), 0.2), 0),
            with_parity(random_dfa(rng, rng.randint(60, 100), 0.2), 1),
        ],
        files,
        "probe",
    )

    canonical.cache_clear()
    plain_wall, plain_out = in_process_pass(plan, cli.main)
    if plain_wall < 2.0:
        # A short first pass still pays for cold allocator arenas and the
        # interpreter's specialization; time a second one instead.
        canonical.cache_clear()
        plain_wall, plain_out = in_process_pass(plan, cli.main)

    spans = Spans()
    built: dict[int, tuple] = {}

    def count_languages(counters, args, result):
        # A cache hit returns a tuple already seen; only fresh builds count.
        if id(result) not in built:
            built[id(result)] = result
            counters["languages"] += len(result)

    def count_tuples(counters, args, result):
        counters["tuples"] += result.tuples_examined

    def count_bytes(counters, args, result):
        counters["bytes_read"] += os.path.getsize(args[0])

    patch = Patch(
        spans,
        {
            "enumeration.canonical_languages": count_languages,
            "enumeration.tightness_search": count_tuples,
            "interchange.load_path": count_bytes,
        },
    )
    patch.install()
    probe_ok = []
    try:
        root = spans.open(spans.name_id("bench.run"))
        canonical.cache_clear()
        traced_wall, traced_out = in_process_pass(plan, patch.root(cli.main, "cli.main"))
        probe_ok.append(minword.build_witness_report(m, n).passed)
        canonical.cache_clear()
        probe_ok.append(minword.tightness_search([2, 2]).max_lss == 3)
        dfas = [minword.load_path(p) for p in probe_paths]
        probe_ok.append(minword.intersection_lss(dfas) is None)
        big = minword.product(dfas).dfa
        probe_ok.append(not big.accepting)
        spans.close(root)
    finally:
        patch.undo()

    attempted = failed = 0
    for cmd, (code, out) in zip(plan.commands * 2, plain_out + traced_out):
        attempted += 1
        failed += not passes_check(cmd, code, out)
    attempted += len(probe_ok)
    failed += probe_ok.count(False)

    s = Summary(spans)
    c = spans.counters
    wall = spans.end[root] - spans.start[root]
    layers = s.layers()
    # The layer self times must add up to the traced wall time.
    attempted += 1
    failed += abs(sum(layers.values()) - wall) > 1e-6 * wall

    tuples = c["tuples"]
    raw = c["enumeration.enumerate_dfas"]
    scan = s.time("enumeration.tightness_search") - s.edge(
        "enumeration.tightness_search", "enumeration.canonical_languages"
    )
    shortest_calls = s.layer_calls("shortest")
    minimize_calls = s.layer_calls("minimize")
    metrics = {
        "enumeration.raw_dfas": raw,
        "enumeration.languages": c["languages"],
        "enumeration.tuples": tuples,
        "enumeration.enumerate_s": s.time("enumeration.enumerate_dfas"),
        "enumeration.canonical_s": s.time("enumeration.canonical_languages"),
        "enumeration.scan_s": scan,
        "enumeration.us_per_tuple": scan / tuples * 1e6,
        "minimize.calls": minimize_calls,
        "minimize.s": s.layer_time("minimize"),
        "minimize.us_per_call": s.layer_time("minimize") / minimize_calls * 1e6,
        "minimize.dedupe_ratio": c["languages"] / raw,
        "shortest.calls": shortest_calls,
        "shortest.s": s.layer_time("shortest"),
        "shortest.us_per_call": s.layer_time("shortest") / shortest_calls * 1e6,
        "shortest.us_per_state": s.edge("bench.run", "shortest.intersection_lss") / big.state_count * 1e6,
        "product.reachable_states": big.state_count,
        "constructions.s": s.layer_time("constructions"),
        "automaton.validate_s": s.time("automaton.validate"),
        "automaton.accepts_s": s.time("automaton.accepts"),
        "automaton.format_word_s": s.time("automaton.format_word"),
        "interchange.dumps_calls": s.calls("interchange.dumps"),
        "interchange.dumps_s": s.time("interchange.dumps"),
        "interchange.load_s": s.time("interchange.load_path"),
        "interchange.bytes_read": c["bytes_read"],
        "cli.import_s": import_s,
        "cli.output_bytes": sum(len(out) for _, out in traced_out),
        "trace.wall_s": wall,
        "trace.bench_self_s": layers.get("bench", 0.0),
        "trace.spans": len(spans.start),
        "trace.overhead_frac": traced_wall / plain_wall - 1,
    }
    for layer in ("enumeration", "minimize", "shortest", "product", "constructions", "reports", "automaton", "interchange", "cli"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    info = {"work_per_pass": plan.work, "work_unit": plan.unit, "untraced_pass_s": plain_wall, "traced_pass_s": traced_wall}
    return metrics, info, attempted, failed


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "minword" / "cli.py").is_file():
        print(f"error: no minword sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(f"{args.workload}:{args.seed}")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        files = run_dir / "files"
        files.mkdir()
        plan = WORKLOADS[args.workload](rng, files)
        if args.trace:
            metrics, info, attempted, failed = traced_run(plan, rng, files)
            units = PER_LAYER
        else:
            metrics, info, attempted, failed = timed_run(plan, args.seconds, run_dir, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        print(f"error: metric names {sorted(set(metrics) ^ set(units))} not declared", file=sys.stderr)
        return 3
    record = run_record(args.workload, args.seed) | info | {"failed_frac": failed / attempted}
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
