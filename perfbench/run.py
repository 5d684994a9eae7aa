"""grapheq benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload c5-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a grapheq checkout; the package is imported from its
``src/`` directory.  A run times set-up in fresh interpreters, makes one
untimed warm-up import so bytecode caches exist, then measures passes over
the workload's task list until ``--seconds`` have been spent (at least one
pass) and checks every output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object; the lines before it name each
metric with its unit, the failure ratio and the run environment.  The exit
code is 1 when any output check fails and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("c5-paper", "c5-sweep", "cycle-scan", "corr-lp")
SETUP_REPEATS = 7
# wall-clock gates inside grapheq.acceptance, in seconds
GATES = {"nash_counts": 1.0, "win_oracle": 10.0}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = (
    "verify", "nash", "pareto", "csw", "regimes", "quantum", "penalty",
    "kfold", "kfold_bruteforce", "players_needed", "nash_file",
)
ACCEPTANCE_CHECKS = (
    "nash_counts", "nash_reference_table", "equilibrium_reference_tables",
    "social_welfare", "quantum_guarantees", "quantum_thresholds",
    "penalty_equilibria", "kfold_agreement", "player_scaling", "win_oracle",
)
PER_LAYER = {
    "games.build_s": "s",
    "classical.payoff_table_s": "s",
    "classical.payoff_table_bytes": "bytes",
    "classical.nash_scan_s": "s",
    "classical.pareto_scan_s": "s",
    "classical.profiles_scanned": "count",
    "classical.nash_yield": "ratio",
    "classical.ratio_regimes_s": "s",
    "classical.symmetry_s": "s",
    "classical.report_s": "s",
    "classical.best_csw_s": "s",
    "correlated.lp_s": "s",
    "correlated.lp_columns": "count",
    "correlated.lp_rows": "count",
    "correlated.support_size": "count",
    "quantum.advice_s": "s",
    "quantum.is_quantum_nash_s": "s",
    "quantum.policies_scored": "count",
    "amplification.product_win_s": "s",
    "amplification.joint_questions": "count",
    "amplification.penalty_s": "s",
    "amplification.group_table_s": "s",
    "amplification.kfold_s": "s",
    "amplification.players_needed_s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    **{f"acceptance.{c}_s": "s" for c in ACCEPTANCE_CHECKS},
    **{f"acceptance.{c}_margin_s": "s" for c in GATES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def measured_env() -> dict:
    """Environment for every measured process: the package from this
    checkout, bytecode caches allowed, no GRAPHEQ_THREADS override."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("GRAPHEQ_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def time_setup(name: str, env: dict) -> list[dict]:
    """Run the set-up probe SETUP_REPEATS times after one untimed warm-up."""
    records = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, env=env, capture_output=True, timeout=120,
        )
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr.decode(errors='replace')}")
        if attempt:  # the first import writes the bytecode caches
            records.append({"wall_s": wall, **json.loads(proc.stdout)})
    return records


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def timed_pass(workload, games, inputs, tracer, env):
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    results = workload.run(games, inputs, tracer, env)
    wall = time.perf_counter() - started
    return results, wall, cpu_seconds() - cpu0


@contextlib.contextmanager
def counting_policies(counter: list):
    """Count the deviation policies ``is_quantum_nash`` scores."""
    import grapheq.quantum as quantum

    original = quantum.deviation_payoff_coefficients

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    quantum.deviation_payoff_coefficients = counted
    try:
        yield
    finally:
        quantum.deviation_payoff_coefficients = original


def gate_margins() -> dict:
    from grapheq import acceptance

    margins = {}
    for name, gate in GATES.items():
        started = time.perf_counter()
        getattr(acceptance, f"check_{name}")()
        margins[f"acceptance.{name}_margin_s"] = gate - (time.perf_counter() - started)
    return margins


def check_all(workload, games, inputs, passes) -> tuple[int, int]:
    attempted = failed = 0
    for results in passes:
        for task, problems in workload.check(games, inputs, results):
            attempted += 1
            if problems:
                failed += 1
                sys.stderr.write(f"perfbench: {workload.name} {task}: {'; '.join(problems)}\n")
    return attempted, failed


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env_info = environment()
    env = measured_env()
    setups = time_setup(name, env)
    games = workload.build()
    inputs = workload.inputs(seed)
    if hasattr(workload, "write_game_file"):
        workload.write_game_file(games)

    passes, walls, cpus = [], [], []
    measured = 0.0
    while not passes or (not trace and measured < seconds):
        results, wall, cpu = timed_pass(workload, games, inputs, NullTracer(), env)
        passes.append(results)
        walls.append(wall)
        cpus.append(cpu)
        measured += wall

    if trace:
        tracer, policies = Tracer(), [0]
        with counting_policies(policies):
            results, traced_wall, _ = timed_pass(workload, games, inputs, tracer, env)
        passes.append(results)
        metrics = {metric: 0 for metric in PER_LAYER}
        metrics.update({f"{span}_s": t for span, t in tracer.self_times().items() if span != "task"})
        metrics.update(workload.counts(games, inputs, results))
        metrics.update(gate_margins())
        metrics["quantum.policies_scored"] = policies[0]
        metrics["cli.import_s"] = statistics.median(r["import_s"] for r in setups)
        metrics["games.build_s"] = statistics.median(r["build_s"] for r in setups)
        metrics["trace.overhead_s"] = traced_wall - walls[0]
        metrics["trace.spans"] = len(tracer.spans)
        units = PER_LAYER
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "env": env_info, "spans": tracer.records()}, fh)
    else:
        rss = peak_rss_mb()  # before the checks, which import scipy
        metrics = {
            "setup_s": statistics.median(r["wall_s"] for r in setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": rss,
        }
        units = END_TO_END

    attempted, failed = check_all(workload, games, inputs, passes)
    env_info["loadavg_after"] = os.getloadavg()
    env_info["pass_walls_s"] = walls
    print("env: " + json.dumps(env_info))
    for metric, value in metrics.items():
        print(f"{name} {metric}: {value} {units[metric]}")
    print(f"{name} fail_ratio: {failed / attempted} ({failed} of {attempted} tasks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, then one summary table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(f"perfbench: {name} exited with {proc.returncode}\n")
            status = max(status, 2)
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        rows.append((name, result))
    print(f"{'workload':<12} {'metric':<16} value")
    for name, result in rows:
        for metric, cell in result["metrics"].items():
            print(f"{name:<12} {metric:<16} {cell['value']:.6g} {cell['unit']}")
        print(f"{name:<12} {'fail_ratio':<16} {result['failed'] / result['attempted']:.6g}")
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{n}.{m}": c for n, r in rows for m, c in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "grapheq" / "__init__.py").is_file():
        fail(f"no grapheq package under {SRC}; run from the root of a grapheq checkout")
    os.chdir(ROOT)
    os.environ.pop("GRAPHEQ_THREADS", None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
