"""Seeded op lists for the four benchmark workloads.

Stdlib only: the op list is built before the timed interpreter imports
numpy, so generating it costs nothing that set-up time would hide. One seed
fixes one op list (a "pass"); a run repeats it in whole passes. Every
generated input stays inside the jundt1997 validity range (0.4-5.0 um,
21.5-250 C; the crystal stays at the default 48 C), so any error an op
raises is a real failure.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("paper-repro", "cli-cold", "sweep-batch", "channel-design")
CLI_WORKLOADS = ("paper-repro", "cli-cold")

MATERIAL = "jundt1997"
TARGETS_NM = (1540.0, 1310.0)
SEPARATION_NM = 20.0
SWEEP_RANGE_NM = (400, 1000)
# Window lengths (points at a 1 nm step) from a single point up to the full
# paper sweep. Five strata of equal op counts, so the median op always falls
# in the 64-point stratum and the tail in the 601-point one.
SWEEP_LENGTHS = (1, 8, 64, 256, 601)
FIT_POWERS_MW = tuple(5.0 + i * (245.0 / 24) for i in range(25))
FIT_NOISE = 0.02
# Largest pump total of a timed pump_balance op. With eta_nor <= 0.020 /mW
# each arm stays below saturation (sqrt(eta_nor * P) < pi/2) for every split,
# so the efficiency gap is monotone and the equalizing split is unique.
BELOW_SATURATION_MW = 120.0
# Inputs on which the program is known to be wrong. They are not timed ops
# (a timed op must not fail); every untraced run checks them once after the
# timed passes and reports the result beside the metrics.
KNOWN_DEFECTS = (
    # ROADMAP 4(b): past saturation pump_balance returns a low-efficiency root
    {"kind": "pump_balance", "ccw": (0.5, 0.01), "cw": (0.3, 0.012), "total_mw": 1000.0},
    # apply_channel mixes in the depolarized part with the input's own
    # success probability, kraus_to_chi with the mean one: with unequal arms
    # the reconstructed chi differs from the closed form by ~1e-2
    {"kind": "tomography", "eta_cw": 0.9, "eta_ccw": 0.2, "phase": 0.5, "mix": 0.05},
)
# Rounded wall time of one pass at the commit that defined the benchmark
# (2-core x86-64 VM, Python 3.11, numpy 2.4). A traced run is a number of
# passes fixed from these before it starts, so that its call counts repeat
# exactly; an untraced run repeats whole passes until --seconds is used up.
NOMINAL_PASS_S = {"paper-repro": 1.8, "cli-cold": 7.5, "sweep-batch": 4.0,
                  "channel-design": 0.88}
MIN_OPS = 11  # so that a percentile with ten samples beyond it exists


def passes_for(workload: str, seconds: float, ops_per_pass: int) -> int:
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    return max(passes, min_passes(ops_per_pass))


def min_passes(ops_per_pass: int) -> int:
    """Passes of every run: at least two, and at least MIN_OPS ops."""
    return max(2, -(-MIN_OPS // ops_per_pass))


def warm_up_ops(ops: list[dict]) -> list[dict]:
    """One fixed op of each kind in ``ops``, the same for every seed, so that
    set-up time does not depend on which op a seed happens to draw first."""
    fixed = {
        "hub_sweep": {"kind": "hub_sweep", "start": 700.0, "stop": 700.0, "target": 1540.0},
        "tomography": {"kind": "tomography", "eta_cw": 0.8, "eta_ccw": 0.6, "phase": 1.0,
                       "mix": 0.0},
        "fit": {"kind": "fit", "curve": noisy_curve(random.Random("warm-up"))},
        "pump_balance": {"kind": "pump_balance", "ccw": (0.5, 0.015), "cw": (0.4, 0.012),
                         "total_mw": 80.0},
    }
    kinds = list(dict.fromkeys(op["kind"] for op in ops))
    return [fixed[kind] for kind in kinds]


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list (one pass) of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper-repro":
        # fixed by the paper; the seed does not change it
        return [{"kind": "reproduce-paper"}]
    if workload == "cli-cold":
        ops = _cli_ops(rng)
    elif workload == "sweep-batch":
        ops = _sweep_ops(rng)
    elif workload == "channel-design":
        # kept in (tomography, fit, pump_balance) order: an op's cost depends
        # on the op before it (a pump_balance after a tomography runs ~40%
        # slower), so a shuffled order would make the tail depend on the seed
        return _channel_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _signal_target(rng: random.Random) -> tuple[float, float]:
    return float(rng.randint(*SWEEP_RANGE_NM)), rng.choice(TARGETS_NM)


def _channel_params(rng: random.Random, mixed: bool) -> dict:
    return {"eta_cw": round(rng.uniform(0.05, 1.0), 6),
            "eta_ccw": round(rng.uniform(0.05, 1.0), 6),
            "phase": round(rng.uniform(0.0, 2.0 * math.pi), 6),
            "mix": round(rng.uniform(0.001, 0.1), 6) if mixed else 0.0}


def _curve_params(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(0.3, 0.6), 6), round(rng.uniform(0.010, 0.020), 6)


def noisy_curve(rng: random.Random) -> dict:
    """Saturation curve sin^2 with 2% multiplicative noise, as in criterion 10."""
    eta_max, eta_nor = _curve_params(rng)
    etas = []
    for p in FIT_POWERS_MW:
        clean = eta_max * math.sin(math.sqrt(eta_nor * p)) ** 2
        etas.append(max(0.0, clean * (1.0 + FIT_NOISE * rng.gauss(0.0, 1.0))))
    return {"eta_max": eta_max, "eta_nor": eta_nor,
            "powers": list(FIT_POWERS_MW), "etas": etas}


def _cli_ops(rng: random.Random) -> list[dict]:
    ops = []
    wavelengths = sorted(round(rng.uniform(400.0, 4900.0), 1)
                         for _ in range(rng.randint(3, 6)))
    ops.append({"kind": "index", "argv": ["index", *map(str, wavelengths)],
                "wavelengths_nm": wavelengths})
    s, t = _signal_target(rng)
    ops.append({"kind": "pm-scan", "signal": s, "target": t,
                "argv": ["pm-scan", "--signal", str(s), "--target", str(t),
                         "--output", "pm_scan.csv"]})
    s, t = _signal_target(rng)
    ops.append({"kind": "tuning-range", "signal": s, "target": t,
                "argv": ["tuning-range", "--signal", str(s), "--target", str(t),
                         "--separation", str(SEPARATION_NM)]})
    s, t = _signal_target(rng)
    ops.append({"kind": "sweet-spot", "signal": s, "target": t,
                "argv": ["sweet-spot", "--signal", str(s), "--target", str(t)]})
    ops.append({"kind": "plan", "argv": ["plan", "--curve", "--output", "pump_plan.csv"]})
    ch = _channel_params(rng, mixed=rng.random() < 0.5)
    label = rng.choice("HVDARL")
    ops.append({"kind": "simulate", **ch, "input": label,
                "argv": ["simulate", "--eta-cw", str(ch["eta_cw"]),
                         "--eta-ccw", str(ch["eta_ccw"]), "--phase", str(ch["phase"]),
                         "--mix", str(ch["mix"]), "--input", label]})
    ch = _channel_params(rng, mixed=rng.random() < 0.5)
    ops.append({"kind": "tomography", **ch,
                "argv": ["tomography", "--eta-cw", str(ch["eta_cw"]),
                         "--eta-ccw", str(ch["eta_ccw"]), "--phase", str(ch["phase"]),
                         "--mix", str(ch["mix"]), "--output", "tomography.json"]})
    ops.append({"kind": "fit", "curve": noisy_curve(rng),
                "argv": ["fit", "--input", "fit.csv"]})
    return ops


def _sweep_ops(rng: random.Random, per_target: int = 3) -> list[dict]:
    """Windows per length and target, one in each of ``per_target`` equal
    slices of the possible starts, so every seed spans the whole range:
    a window's cost depends on where it sits by up to 2x."""
    lo, hi = SWEEP_RANGE_NM
    ops = []
    for length in SWEEP_LENGTHS:
        starts = hi - length + 2 - lo
        for target in TARGETS_NM:
            for k in range(per_target):
                start = lo + int((k + rng.random()) * starts / per_target)
                ops.append({"kind": "hub_sweep", "start": float(start),
                            "stop": float(start + length - 1), "target": target})
    return ops


def _channel_ops(rng: random.Random, per_kind: int = 120) -> list[dict]:
    ops = []
    for i in range(per_kind):
        channel = _channel_params(rng, mixed=i % 2 == 1)
        if channel["mix"]:
            # every other channel carries a depolarizing admixture, on arms
            # balanced as pump_balance balances them (see KNOWN_DEFECTS)
            channel["eta_ccw"] = channel["eta_cw"]
        ops.append({"kind": "tomography", **channel})
        ops.append({"kind": "fit", "curve": noisy_curve(rng)})
        (em_a, en_a), (em_b, en_b) = _curve_params(rng), _curve_params(rng)
        ops.append({"kind": "pump_balance", "ccw": (em_a, en_a), "cw": (em_b, en_b),
                    "total_mw": round(rng.uniform(20.0, BELOW_SATURATION_MW), 3)})
    return ops


def probe_scans(workload: str, ops: list[dict]) -> list[tuple[float, float, float, float]]:
    """(signal_nm, target_nm, halfwidth_thz, step_ghz) scans a workload spans.

    Used by the traced run to time the Sellmeier and phase-mismatch kernels
    on the arrays the workload's own ops evaluate: the tuning scan window
    (+-60 THz at the 5 GHz coarse step) of each swept or tuned point, and the
    pm-scan window. The channel workload spans none.
    """
    scans = []
    if workload == "paper-repro":
        for target in TARGETS_NM:
            for s in range(SWEEP_RANGE_NM[0], SWEEP_RANGE_NM[1] + 1, 100):
                scans.append((float(s), target, 60.0, 5.0))
    for op in ops:
        if op["kind"] == "hub_sweep":
            mid = float(round(0.5 * (op["start"] + op["stop"])))
            scans.append((mid, op["target"], 60.0, 5.0))
        elif op["kind"] == "tuning-range":
            scans.append((op["signal"], op["target"], 60.0, 5.0))
        elif op["kind"] == "pm-scan":
            scans.append((op["signal"], op["target"], 6.0, 2.0))
    return scans
