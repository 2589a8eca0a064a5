"""qfchub benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists and what each ROADMAP item
should move):
  paper-repro     ``qfchub reproduce-paper --workers 2`` as a subprocess
  cli-cold        a closed loop, one client, fresh ``python -m qfchub <cmd>``
  sweep-batch     in process: ``hub_sweep`` windows of 1 to 601 points
  channel-design  in process: tomography, ``fit_efficiency``, ``pump_balance``

A seed fixes one op list (a pass). An untraced run repeats whole passes
for about ``--seconds``; a traced run is a number of passes fixed before it
starts (see ``workloads.passes_for``), so that its call counts repeat
exactly. All load comes from this one process and at most one child
interpreter at a time (plus the two pool workers of paper-repro).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones. The lines before it are a readable
report; a full record of the run (samples, environment, and with ``--trace
1`` every span) is written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import PaperReference, cli_problems, sweep_reference  # noqa: E402
from child import now, run_for, run_passes, trace_passes  # noqa: E402
from tracing import LAYERS, importtime_by_package, merge_totals, strip_importtime  # noqa: E402
from workloads import CLI_WORKLOADS, WORKLOADS, make_ops  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB", "success_ratio": "ratio"}
SPAN_MEDIANS = {"tuning.tuning_range_ms": "tuning.tuning_range",
                "tuning.hub_sweep_ms": "tuning.hub_sweep",
                "tuning.pm_spectrum_ms": "tuning.pm_spectrum",
                "dwdm.plan_pumps_ms": "dwdm.plan_pumps",
                "dwdm.curve_ms": "dwdm.relative_efficiency_curve",
                "polarization.fit_ms": "polarization.fit_efficiency",
                "polarization.pump_balance_ms": "polarization.pump_balance"}
TOMOGRAPHY_SPANS = ("polarization.simulate_tomography", "polarization.reconstruct_chi",
                    "polarization.process_fidelity")
PER_LAYER = {
    "import.total_ms": "ms", "import.numpy_ms": "ms", "import.scipy_ms": "ms",
    "import.qfchub_ms": "ms", "cli.startup_ms": "ms", "cli.handler_ms": "ms",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "numpy.self_ms": "ms", "scipy.self_ms": "ms",
    "dispersion.index_ns_per_pt": "ns", "qpm.mismatch_ns_per_pt": "ns",
    **{name: "ms" for name in SPAN_MEDIANS},
    "polarization.tomography_ms": "ms",
    "emit.write_ms": "ms", "emit.bytes": "B",
    "tuning.nonempty_ratio": "ratio",
    "trace.overhead_ratio": "ratio", "trace.span_overhead_ratio": "ratio",
    "trace.spans_per_op": "count",
}


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(args: list[str], env: dict, python_flags=()) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    launch = now()
    proc = subprocess.run([sys.executable, *python_flags, str(HERE / "child.py"), *args,
                           "--launch", repr(launch)],
                          cwd=HERE, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed ({proc.returncode}):\n"
                           f"{strip_importtime(proc.stderr)[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["stderr"] = proc.stderr
    return result


class CliRunner:
    """One fresh ``python -m qfchub`` process per op, checked after it exits."""

    def __init__(self, env: dict, work: Path) -> None:
        self.env = env
        self.work = work
        self.paper = PaperReference()
        self.sweeps = sweep_reference()
        self.extras: list[dict] = []

    def argv(self, op: dict) -> list[str]:
        if op["kind"] == "reproduce-paper":
            return ["reproduce-paper", "--workers", "2", "--out-dir", "out"]
        return op["argv"]

    def do_op(self, dump_dir: Path | None = None, profiled: bool = False):
        def do(i: int, op: dict):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            if op["kind"] == "fit":
                curve = op["curve"]
                (self.work / "fit.csv").write_text("P_mW,eta\n" + "".join(
                    f"{p!r},{e!r}\n" for p, e in zip(curve["powers"], curve["etas"])))
            if dump_dir is None:
                cmd = [sys.executable, "-m", "qfchub", *self.argv(op)]
            else:
                dump = dump_dir / f"op{len(self.extras)}.json"
                cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"), "cli",
                       "--dump", str(dump), *(["--profile"] if profiled else []),
                       "--", *self.argv(op)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            latency = time.perf_counter() - started
            extra = {"stderr": proc.stderr}
            self.extras.append(extra)
            if dump_dir is not None and dump.exists():
                extra["dump"] = json.loads(dump.read_text())
            if proc.returncode != 0:
                tail = strip_importtime(proc.stderr).strip().splitlines()[-1:]
                return latency, [f"{op['kind']}: exit {proc.returncode} {tail}"]
            try:
                summary = json.loads(proc.stdout.splitlines()[-1])
                extra["elapsed_s"] = summary["elapsed_s"]
                problems = cli_problems(op, summary, proc.stdout, self.work,
                                        self.paper, self.sweeps)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problems = [f"{op['kind']}: bad output: {exc!r}"]
            return latency, problems
        return do


def steal_jiffies() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Recorded, never used to correct a metric. Neither steal nor CPU time
    shows the phases in which a neighbour slows this VM's cores; this does.
    """
    times = []
    for _ in range(9):
        started = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - started)
    return 1000.0 * statistics.median(times)


def environment() -> dict:
    return {"python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "steal_jiffies": steal_jiffies(), "reference_loop_ms": reference_loop_ms()}


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(records: list, setups: list[float], ops_per_pass: int,
               best_of_repeats: bool) -> tuple:
    """The end-to-end metrics of an untraced run, and how each was taken.

    With ``best_of_repeats`` (the in-process workloads) an op's latency is
    the fastest of its repeats in the run, one value per op of the list:
    these ops take milliseconds, and on a shared host the scheduler and
    neighbours only ever add time to them. A CLI op is a whole process, as
    a user runs it, and every invocation counts.
    """
    latencies = [r[1] for r in records]
    if best_of_repeats:
        latencies = [min(latencies[i::ops_per_pass]) for i in range(ops_per_pass)]
    failed = [r for r in records if r[2]]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "success_ratio": (len(records) - len(failed)) / len(records),
    }
    repeats = len(records) // ops_per_pass
    samples = (f"{len(latencies)} ops, each the best of {repeats} repeats"
               if best_of_repeats else f"{len(latencies)} ops")
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups",
        "ops_per_s": f"{samples}; {sum(latencies):.3f} s of op wall time",
        "op_p50_ms": f"median of {samples}",
        "op_tail_ms": f"p{tail_pct:.1f} ({TAIL_BEYOND} beyond) of {samples}",
        "peak_rss_mb": "largest process of the workload, children included",
        "success_ratio": f"{len(records) - len(failed)} of {len(records)} ops passed; "
                         f"failed_ratio {len(failed)}/{len(records)} = "
                         f"{len(failed) / len(records):.4f}",
    }
    return metrics, notes, failed


def run_untraced(workload: str, seed: int, seconds: float, env: dict, work: Path) -> dict:
    ops = make_ops(workload, seed)
    setups = []
    inprocess = workload not in CLI_WORKLOADS
    for _ in range(SETUP_SAMPLES - (1 if inprocess else 0)):
        setups.append(run_child(["setup", "--workload", workload, "--seed", str(seed)],
                                env)["setup_s"])
    if inprocess:
        result = run_child(["run", "--workload", workload, "--seed", str(seed),
                            "--seconds", repr(seconds)], env)
        setups.append(result["setup_s"])
        records = result["records"]
    else:
        records = run_for(ops, seconds, CliRunner(env, work).do_op())
    metrics, notes, failed = end_to_end(records, setups, len(ops), inprocess)
    return {"metrics": metrics, "notes": notes, "records": records, "failed": failed,
            "known_defects": result.get("known_defects", []) if inprocess else []}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _throughput(records: list) -> float:
    return len(records) / sum(r[1] for r in records)


def per_layer(untraced: list, traced: list, profiled: list, spans: list, layers: dict,
              imports: list[dict], cli_split: list[tuple[float, float]]) -> dict:
    """Per-op layer metrics: spans from ``traced``, counts from ``profiled``."""
    n = len(traced)
    m = {name: 0.0 for name in PER_LAYER}
    for key in ("total", "numpy", "scipy", "qfchub"):
        m[f"import.{key}_ms"] = _median([i.get(key, 0.0) for i in imports])
    if cli_split:
        m["cli.startup_ms"] = _median([1000.0 * (wall - handler) for wall, handler in cli_split])
        m["cli.handler_ms"] = _median([1000.0 * handler for _, handler in cli_split])
    for layer, (calls, self_s) in layers.items():
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] = calls / len(profiled)
        if f"{layer}.self_ms" in m:
            m[f"{layer}.self_ms"] = 1000.0 * self_s / len(profiled)

    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def duration(span) -> float:
        return span[2] - span[1]

    for kernel, metric in (("dispersion.refractive_index", "dispersion.index_ns_per_pt"),
                           ("qpm.phase_mismatch_vs_converted", "qpm.mismatch_ns_per_pt")):
        probe = [s for s in by_name.get(kernel, []) if s[4] < 0]
        points = sum(s[5]["points"] for s in probe)
        if points:
            m[metric] = 1e9 * sum(map(duration, probe)) / points
    for metric, name in SPAN_MEDIANS.items():
        m[metric] = 1000.0 * _median([duration(s) for s in by_name.get(name, [])])
    tomography: dict[int, float] = {}
    for name in TOMOGRAPHY_SPANS:
        for s in by_name.get(name, []):
            tomography[s[4]] = tomography.get(s[4], 0.0) + duration(s)
    m["polarization.tomography_ms"] = 1000.0 * _median(list(tomography.values()))
    writes = [s for name, group in by_name.items() if name.startswith("emit.write")
              for s in group]
    m["emit.write_ms"] = 1000.0 * sum(map(duration, writes)) / n
    m["emit.bytes"] = sum((s[5] or {}).get("bytes", 0) for s in writes) / n
    tuned = [s[5] for name in ("tuning.hub_sweep", "tuning.tuning_range")
             for s in by_name.get(name, []) if s[4] >= 0 and s[5]]
    attempted = sum(a["points"] for a in tuned)
    if attempted:
        m["tuning.nonempty_ratio"] = sum(a["nonempty"] for a in tuned) / attempted
    m["trace.overhead_ratio"] = _throughput(untraced) / _throughput(profiled)
    m["trace.span_overhead_ratio"] = _throughput(untraced) / _throughput(traced)
    m["trace.spans_per_op"] = sum(1 for s in spans if s[4] >= 0) / n
    return m


def run_traced(workload: str, seed: int, seconds: float, env: dict, work: Path) -> dict:
    """Untraced half, then spans, then spans with cProfile (see child.trace_main)."""
    ops = make_ops(workload, seed)
    args = ["--workload", workload, "--seed", str(seed)]
    if workload in CLI_WORKLOADS:
        runner = CliRunner(env, work)
        half, quarter = trace_passes(workload, seconds, len(ops))
        untraced = run_passes(ops, half, runner.do_op())
        cli_split = [(r[1], e["elapsed_s"]) for r, e in zip(untraced, runner.extras)
                     if "elapsed_s" in e]
        dump_dir = OUT / f"dumps-{os.getpid()}"
        dump_dir.mkdir(parents=True, exist_ok=True)
        try:
            runner.extras = []
            traced = run_passes(ops, quarter, runner.do_op(dump_dir))
            traced_extras, runner.extras = runner.extras, []
            profiled = run_passes(ops, quarter, runner.do_op(dump_dir, True))
        finally:
            shutil.rmtree(dump_dir, ignore_errors=True)
        spans, layers = [], {}
        for op_id, extra in enumerate(traced_extras):
            dump = extra.get("dump", {"spans": []})
            spans += [(s[0], s[1], s[2], s[3], op_id, s[5]) for s in dump["spans"]]
        for extra in runner.extras:
            merge_totals(layers, extra.get("dump", {"layers": {}})["layers"])
        imports = [importtime_by_package(e["stderr"])
                   for e in traced_extras + runner.extras]
        spans += run_child(["probe", *args], env)["spans"]
    else:
        result = run_child(["run", *args, "--seconds", repr(seconds), "--trace"], env,
                           python_flags=("-X", "importtime"))
        untraced, traced, profiled = result["untraced"], result["traced"], result["profiled"]
        spans, layers = result["spans"], result["layers"]
        imports = [importtime_by_package(result["stderr"])]
        cli_split = []
    metrics = per_layer(untraced, traced, profiled, spans, layers, imports, cli_split)
    records = untraced + traced + profiled
    return {"metrics": metrics, "records": records, "spans": spans, "layers": layers,
            "failed": [r for r in records if r[2]],
            "notes": {"trace.overhead_ratio":
                      f"untraced {_throughput(untraced):.3f} ops/s ({len(untraced)} ops) / "
                      f"profiled {_throughput(profiled):.3f} ops/s ({len(profiled)} ops)",
                      "trace.span_overhead_ratio":
                      f"untraced / spans only {_throughput(traced):.3f} ops/s "
                      f"({len(traced)} ops)"}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{os.getpid()}"
    before = environment()
    started = time.perf_counter()
    try:
        if trace:
            run = run_traced(workload, seed, seconds, env, work)
        else:
            run = run_untraced(workload, seed, seconds, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - started
    after = environment()
    units = PER_LAYER if trace else END_TO_END
    records, failed = run["records"], run["failed"]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "wall_s": wall, "environment": {"before": before, "after": after},
              "result": result, "notes": run["notes"],
              "failures": failed[:50], "known_defects": run.get("known_defects"),
              "records": records,
              "spans": run.get("spans"), "layers": run.get("layers")}
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record))

    print(f"== {workload} seed {seed} {'traced' if trace else 'untraced'}: "
          f"{len(records)} ops in {wall:.1f} s")
    for name, unit in units.items():
        value = run["metrics"][name]
        note = run["notes"].get(name, "")
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    kinds = sorted({r[0] for r in failed})
    print(f"  checks: {'all ops passed' if not failed else f'{len(failed)} ops failed ({kinds})'}")
    for r in failed[:3]:
        print(f"    {r[0]}: {r[2][0]}")
    for defect in run.get("known_defects", []):
        state = "still fails" if defect["problems"] else "now passes"
        print(f"  known defect (checked once, not a timed op) {state}: "
              f"{'; '.join(defect['problems']) or defect['op']}")
    print(f"  env: python {before['python']} numpy {before['numpy']} scipy {before['scipy']}"
          f" nproc {before['nproc']} load {before['loadavg'][0]:.2f}->"
          f"{after['loadavg'][0]:.2f} steal +{after['steal_jiffies'] - before['steal_jiffies']}"
          f" jiffies; reference loop {before['reference_loop_ms']:.2f}->"
          f"{after['reference_loop_ms']:.2f} ms; record {record_path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfchub" / "__init__.py").is_file():
        print(f"error: no qfchub sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))))
        return 0
    # Each workload in a fresh run.py process, so that peak_rss_mb is its own.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", repr(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE,
                              text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
