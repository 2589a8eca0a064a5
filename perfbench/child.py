"""Fresh-interpreter side of the benchmark.

Modes:
  setup  import the package, load the material and (in-process workloads)
         run one untimed warm-up op of each kind, then report set-up time
  run    setup, then run whole passes of an in-process workload's op list;
         with --trace the second half of the time runs under cProfile with
         spans, followed by the kernel probes
  cli    run one CLI command in process under cProfile with spans around
         every layer function the CLI calls (traced CLI workloads)
  probe  kernel probes alone, for the traced CLI workloads

Prints one JSON object as the last line of stdout. ``--launch`` is the
parent's CLOCK_MONOTONIC reading just before it started this interpreter.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import (CLI_WORKLOADS, KNOWN_DEFECTS, MATERIAL, SEPARATION_NM, make_ops,
                       min_passes, passes_for, probe_scans, warm_up_ops)

LENGTH_MM = 40.0
TEMPERATURE_C = 48.0
PROBE_MIN_S = 0.2


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class InProcess:
    """Ops of the in-process workloads, called through ``call`` for spans."""

    def __init__(self, ops: list[dict]) -> None:
        import qfchub as q
        self.q = q
        self.ops = ops
        self.material = q.get_material(MATERIAL)
        self.constraints = q.TuningConstraints(
            constraint_mode="min_pump_converted_separation",
            constraint_value_nm=SEPARATION_NM)
        self.sweeps = None  # loaded at the first check, after set-up is timed

    def do(self, op: dict, call=plain_call):
        q = self.q
        kind = op["kind"]
        if kind == "hub_sweep":
            return call("tuning.hub_sweep", q.hub_sweep, (op["start"], op["stop"]), 1.0,
                        op["target"], LENGTH_MM, TEMPERATURE_C, self.material,
                        self.constraints, workers=1)
        if kind == "tomography":
            model = q.QfcChannelModel(op["eta_cw"], op["eta_ccw"], op["phase"], op["mix"])
            outputs = call("polarization.simulate_tomography", q.simulate_tomography, model)
            inputs = {label: q.PolarizationState.from_label(label) for label in outputs}
            chi = call("polarization.reconstruct_chi", q.reconstruct_chi, inputs, outputs)
            return model, chi, call("polarization.process_fidelity", q.process_fidelity, chi)
        if kind == "fit":
            curve = op["curve"]
            return call("polarization.fit_efficiency", q.fit_efficiency,
                        curve["powers"], curve["etas"])
        if kind == "pump_balance":
            return call("polarization.pump_balance", q.pump_balance,
                        q.EfficiencyCurveParams(*op["ccw"]),
                        q.EfficiencyCurveParams(*op["cw"]), op["total_mw"])
        raise ValueError(f"unknown op kind {kind!r}")

    def warm_up(self) -> None:
        for op in warm_up_ops(self.ops):
            self.do(op)

    @staticmethod
    def fingerprint(op: dict, result) -> tuple:
        """The checked values of a result, to compare repeats of one op."""
        kind = op["kind"]
        if kind == "hub_sweep":
            return tuple((p.signal_nm, *p.tuning.converted_interval_nm, p.tuning.width_nm,
                          p.tuning.width_thz, p.tuning.channel_count) for p in result)
        if kind == "tomography":
            _, chi, fidelity = result
            return chi.chi.tobytes(), fidelity
        if kind == "fit":
            return result.params.eta_max, result.params.eta_nor_per_mw
        return result.p_ccw_mw, result.p_cw_mw, result.eta_ccw, result.eta_cw, result.equalized

    def check(self, op: dict, result) -> list[str]:
        import numpy as np
        from checks import (TOMOGRAPHY_TOLERANCE, check_tuning, closed_form_fidelity,
                            fit_problems, sweep_reference)
        kind = op["kind"]
        if kind == "hub_sweep":
            if self.sweeps is None:
                self.sweeps = sweep_reference()
            expected = int(op["stop"] - op["start"]) + 1
            if len(result) != expected:
                return [f"hub_sweep: {len(result)} points, expected {expected}"]
            problems = []
            for p in result:
                t = p.tuning
                problems += check_tuning(
                    self.sweeps[op["target"]][p.signal_nm], *t.converted_interval_nm,
                    t.width_nm, t.width_thz, t.channel_count,
                    f"hub_sweep({p.signal_nm}, {op['target']})")
            return problems
        if kind == "tomography":
            model, chi, fidelity = result
            err = float(np.max(np.abs(chi.chi - self.q.kraus_to_chi(model).chi)))
            expected = closed_form_fidelity(op["eta_cw"], op["eta_ccw"], op["phase"], op["mix"])
            problems = []
            if not err < TOMOGRAPHY_TOLERANCE:
                problems.append(f"tomography{tuple(op.values())[1:]}: round-trip error "
                                f"{err:.3g} against kraus_to_chi")
            if not abs(fidelity - expected) <= TOMOGRAPHY_TOLERANCE:
                problems.append(f"tomography: fidelity {fidelity}, expected {expected}")
            return problems
        if kind == "fit":
            return fit_problems(op["curve"], result.params.eta_max,
                                result.params.eta_nor_per_mw, "fit")
        if kind == "pump_balance":
            return self._pump_problems(op, result)
        return [f"{kind}: no check"]

    def _pump_problems(self, op: dict, split) -> list[str]:
        """Equalized, and no equalizing split on a dense scan converts better."""
        import numpy as np
        q = self.q
        ccw, cw = q.EfficiencyCurveParams(*op["ccw"]), q.EfficiencyCurveParams(*op["cw"])
        total = op["total_mw"]
        where = f"pump_balance({op['ccw']}, {op['cw']}, {total} mW)"
        if not split.equalized or abs(split.p_ccw_mw + split.p_cw_mw - total) > 1e-9 * total:
            return [f"{where}: split not equalized"]
        ratio = np.linspace(0.0, 1.0, 20001)
        eta_ccw = q.efficiency_model(ratio * total, ccw)
        gap = eta_ccw - q.efficiency_model((1.0 - ratio) * total, cw)
        roots = np.nonzero(np.sign(gap[:-1]) != np.sign(gap[1:]))[0]
        best = float(np.max(0.5 * (eta_ccw[roots] + eta_ccw[roots + 1])))
        if split.eta_ccw < best - 1e-3:
            return [f"{where}: equalized at eta {split.eta_ccw:.4f}, "
                    f"but eta {best:.4f} also equalizes"]
        return []


def run_passes(ops: list[dict], passes: int, do_op) -> list[tuple]:
    """Run the op list ``passes`` times.

    ``do_op(index, op)`` returns (latency_s, problems). Returns one
    (kind, latency_s, problems) record per op.
    """
    records = []
    for _ in range(passes):
        for i, op in enumerate(ops):
            latency, problems = do_op(i, op)
            records.append((op["kind"], latency, problems))
    return records


def run_for(ops: list[dict], seconds: float, do_op, rotate_cpus: bool = False) -> list[tuple]:
    """Run whole passes of the op list, checks included, for about ``seconds``:
    a pass starts only if one more pass of the mean length still fits.

    With ``rotate_cpus`` each pass runs pinned to the next CPU this process
    may use: on a shared host one CPU is often slowed by a neighbour while
    another is not, and an op's fastest repeat should not depend on which
    one the scheduler happened to keep it on.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed) if rotate_cpus else []
    records = []
    started = time.perf_counter()
    passes = 0
    try:
        while True:
            if cpus:
                os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            records += run_passes(ops, 1, do_op)
            passes += 1
            elapsed = time.perf_counter() - started
            if passes >= min_passes(len(ops)) and elapsed * (passes + 1) / passes > seconds:
                return records
    finally:
        if cpus:
            os.sched_setaffinity(0, allowed)


def _timed_inprocess(runner: InProcess, call, tracer=None, profile=None):
    """Time one op; its output check runs after, unprofiled and untimed.

    The first result of each op of the list is checked in full; a repeat
    must give the same checked values.
    """
    checked: dict[int, tuple] = {}

    def check(i, op, result) -> list[str]:
        if i in checked:
            if runner.fingerprint(op, result) != checked[i]:
                return [f"{op['kind']}: result differs from the op's first, checked one"]
            return []
        problems = runner.check(op, result)
        if not problems:
            checked[i] = runner.fingerprint(op, result)
        return problems

    def do_op(i, op):
        if tracer is not None:
            tracer.op += 1
        if profile is not None:
            profile.enable()
        started = time.perf_counter()
        try:
            result = runner.do(op, call)
        except Exception as exc:  # an op that raises is a failed op
            return time.perf_counter() - started, [f"{op['kind']}: {exc!r}"]
        finally:
            latency = time.perf_counter() - started
            if profile is not None:
                profile.disable()
        try:
            problems = check(i, op, result)
        except Exception as exc:
            problems = [f"{op['kind']}: check raised {exc!r}"]
        return latency, problems
    return do_op


def known_defects(runner: InProcess) -> list[dict]:
    """Check the KNOWN_DEFECTS inputs of the op kinds this workload runs."""
    kinds = {op["kind"] for op in runner.ops}
    out = []
    for op in KNOWN_DEFECTS:
        if op["kind"] in kinds:
            try:
                problems = runner.check(op, runner.do(op))
            except Exception as exc:
                problems = [f"{op['kind']}: {exc!r}"]
            out.append({"op": op, "problems": problems})
    return out


def probes(workload: str, ops: list[dict], tracer) -> None:
    """Time the Sellmeier and mismatch kernels on the arrays the workload spans."""
    import numpy as np
    import qfchub as q
    material = q.get_material(MATERIAL)
    lo_um, hi_um = material.wavelength_um
    calls = []
    for signal_nm, target_nm, halfwidth, step_ghz in probe_scans(workload, ops):
        signal = q.SpectralPoint.from_wavelength_nm(signal_nm)
        nu_c0 = q.C_NM_THZ / target_nm
        n = int(halfwidth * 1000.0 / step_ghz)
        nu_c = nu_c0 + step_ghz / 1000.0 * np.arange(-n, n + 1)
        lam_c = q.C_UM_THZ / nu_c
        with np.errstate(divide="ignore"):
            lam_p = q.C_UM_THZ / (signal.frequency_thz - nu_c)
        keep = (lam_c >= lo_um) & (lam_c <= hi_um) & (lam_p >= lo_um) & (lam_p <= hi_um)
        device = q.make_device(signal_nm, target_nm, LENGTH_MM, TEMPERATURE_C, material)
        calls.append(("dispersion.refractive_index", q.refractive_index,
                      (material, np.concatenate([lam_c[keep], lam_p[keep]]), TEMPERATURE_C)))
        calls.append(("qpm.phase_mismatch_vs_converted", q.phase_mismatch_vs_converted,
                      (nu_c[keep], signal, device)))
    if workload == "sweep-batch":
        constraints = q.TuningConstraints(constraint_mode="min_pump_converted_separation",
                                          constraint_value_nm=SEPARATION_NM)
        for op in ops:
            calls.append(("tuning.tuning_range", q.tuning_range,
                          (op["start"], op["target"], LENGTH_MM, TEMPERATURE_C,
                           material, constraints)))
    if not calls:
        return
    tracer.op = -1
    started = time.perf_counter()
    repeats = 0
    while repeats < 3 or time.perf_counter() - started < PROBE_MIN_S:
        for name, fn, args in calls:
            tracer.call(name, fn, *args)
        repeats += 1


def trace_passes(workload: str, seconds: float, ops_per_pass: int) -> tuple[int, int]:
    """Passes of the untraced half and of each traced quarter of a traced run."""
    passes = passes_for(workload, seconds, ops_per_pass)
    return max(1, round(passes / 2)), max(1, round(passes / 4))


def trace_main(workload: str, ops: list[dict], runner: InProcess | None,
               seconds: float) -> dict:
    """Untraced half; a quarter with spans; a quarter with spans and cProfile.

    Span timings come from the quarter without cProfile, which inflates
    Python-level work more than numpy work; counts and self times come from
    the profiled quarter. The kernel probes follow.
    """
    import cProfile

    from tracing import Tracer, layer_totals
    tracer = Tracer()
    out = {}
    if runner is not None:
        half, quarter = trace_passes(workload, seconds, len(ops))
        untraced = run_passes(ops, half, _timed_inprocess(runner, plain_call))
        traced = run_passes(ops, quarter, _timed_inprocess(runner, tracer.call, tracer))
        profile = cProfile.Profile()
        profiler = Tracer()
        profiled = run_passes(ops, quarter,
                              _timed_inprocess(runner, profiler.call, profiler, profile))
        out.update(untraced=untraced, traced=traced, profiled=profiled,
                   layers=layer_totals(profile))
    probes(workload, ops, tracer)
    out["spans"] = tracer.finish()
    return out


def cli_main(argv: list[str], dump: str, profiled: bool) -> int:
    """One CLI command with spans around every layer function the CLI calls.

    With ``profiled`` the command also runs under cProfile, and so does each
    forked pool worker, whose counts are merged in.
    """
    import cProfile
    import multiprocessing.util

    import qfchub.cli as cli

    from tracing import Tracer, layer_totals, merge_totals, wrap_module_imports
    tracer = Tracer()
    tracer.op = 0
    wrap_module_imports(cli, tracer)
    profile = cProfile.Profile()
    worker_dir = dump + ".workers"
    os.makedirs(worker_dir, exist_ok=True)

    def profile_worker(_owner) -> None:
        # A forked pool worker inherits the parent's profiler; give it its own
        # and write its counts when the worker exits.
        profile.disable()
        worker = cProfile.Profile()

        def dump_worker() -> None:
            worker.disable()
            with open(os.path.join(worker_dir, f"{os.getpid()}.json"), "w") as fh:
                json.dump(layer_totals(worker), fh)

        multiprocessing.util.Finalize(None, dump_worker, exitpriority=100)
        worker.enable()

    if profiled:
        multiprocessing.util.register_after_fork(tracer, profile_worker)
        profile.enable()
    try:
        code = tracer.call("cli.main", cli.main, argv)
    finally:
        profile.disable()
    layers = layer_totals(profile) if profiled else {}
    for name in sorted(os.listdir(worker_dir)):
        with open(os.path.join(worker_dir, name)) as fh:
            merge_totals(layers, json.load(fh))
    with open(dump, "w") as fh:
        json.dump({"spans": tracer.finish(), "layers": layers}, fh)
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "cli", "probe"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--launch", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump")
    parser.add_argument("--profile", action="store_true")
    own, cli_argv = sys.argv[1:], []
    if "--" in own:  # cli mode: the command line after "--" goes to qfchub
        cut = own.index("--")
        own, cli_argv = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)
    if args.mode == "cli":
        return cli_main(cli_argv, args.dump, args.profile)

    ops = make_ops(args.workload, args.seed)
    if args.mode == "probe":
        print(json.dumps(trace_main(args.workload, ops, None, 0.0)))
        return 0
    if args.workload in CLI_WORKLOADS:
        import qfchub.cli  # noqa: F401  (what every CLI request imports)
        import qfchub
        qfchub.get_material(MATERIAL)
        runner = None
    else:
        runner = InProcess(ops)
        runner.warm_up()
    result = {"setup_s": now() - args.launch}
    if args.mode == "run":
        if args.trace:
            result.update(trace_main(args.workload, ops, runner, args.seconds))
        else:
            result["records"] = run_for(ops, args.seconds, _timed_inprocess(runner, plain_call),
                                        rotate_cpus=True)
            result["known_defects"] = known_defects(runner)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
