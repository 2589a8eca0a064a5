"""Polarization-preserving conversion channel: Kraus model, tomography, fitting.

The converted photon ideally suffers a bit flip: amplitude beta*sqrt(eta_cw)
lands on H and alpha*sqrt(eta_ccw)*exp(i*phase) on V. The single Kraus
operator is K = sqrt(eta_cw)|H><V| + sqrt(eta_ccw) e^{i phase} |V><H|, a
trace-decreasing channel; fidelities are reported per detected photon, i.e.
on the trace-normalized process matrix, while the raw trace is kept as the
success probability. Process matrices live in the Pauli basis, order
(I, X, Y, Z), and that order is fixed in every serialization.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (ConvergenceError, DegenerateError, DomainError,
                     SingularityError)

PAULI_LABELS = ("I", "X", "Y", "Z")
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_STATE_AMPLITUDES = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "D": (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
    "A": (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)),
    "R": (1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)),
    "L": (1.0 / np.sqrt(2.0), -1j / np.sqrt(2.0)),
}

TOMOGRAPHY_INPUTS = ("H", "V", "D", "R")

_HERM_TOL = 1e-9
_PSD_TOL = 1e-12

_BALANCE_GRID = 256  # ratio-grid points per monotone piece of sin^2 in pump_balance
_BALANCE_BISECTIONS = 64  # narrows a grid bracket below one ulp of the ratio


@dataclass(frozen=True)
class PolarizationState:
    """Polarization qubit as a 2x2 density matrix over {H, V}."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError("density matrix must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise DomainError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise DomainError("density matrix must have unit trace")
        if np.min(np.linalg.eigvalsh(m)) < -_PSD_TOL:
            raise DomainError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_amplitudes(cls, alpha: complex, beta: complex) -> "PolarizationState":
        vec = np.array([alpha, beta], dtype=complex)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise DomainError("amplitudes must not both vanish")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def from_label(cls, label: str) -> "PolarizationState":
        try:
            alpha, beta = _STATE_AMPLITUDES[label.upper()]
        except KeyError:
            raise DomainError(
                f"unknown state label {label!r}; expected one of "
                f"{'/'.join(_STATE_AMPLITUDES)}") from None
        return cls.from_amplitudes(alpha, beta)

    def bloch_vector(self) -> tuple[float, float, float]:
        return tuple(float(np.trace(self.matrix @ p).real) for p in PAULI[1:])


@dataclass(frozen=True)
class QfcChannelModel:
    """Channel parameters: per-direction efficiencies, composite phase, mixing.

    The phase is the single physical combination of circuit and pump phases;
    depolarizing_mix is an artifact knob (default 0) that admixes the fully
    depolarizing channel to emulate imperfect interference.
    """

    eta_cw: float
    eta_ccw: float
    phase_rad: float = 0.0
    depolarizing_mix: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_cw", "eta_ccw", "depolarizing_mix"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class ProcessMatrix:
    """4x4 process matrix in the (I, X, Y, Z) Pauli basis."""

    chi: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.chi, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError("process matrix must be 4x4")
        object.__setattr__(self, "chi", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.chi).real)


def kraus_operator(model: QfcChannelModel) -> np.ndarray:
    """K = sqrt(eta_cw)|H><V| + sqrt(eta_ccw) e^{i phase} |V><H|."""
    k = np.zeros((2, 2), dtype=complex)
    k[0, 1] = np.sqrt(model.eta_cw)
    k[1, 0] = np.sqrt(model.eta_ccw) * np.exp(1j * model.phase_rad)
    return k


def apply_channel(state: PolarizationState,
                  model: QfcChannelModel) -> tuple[PolarizationState, float]:
    """Channel action on a state: (normalized output, success probability)."""
    k = kraus_operator(model)
    raw = k @ state.matrix @ k.conj().T
    probability = float(np.trace(raw).real)
    if probability < 1e-15:
        raise DegenerateError(
            "channel output has vanishing success probability for this input")
    mix = model.depolarizing_mix
    if mix:
        raw = (1.0 - mix) * raw + mix * probability * 0.5 * np.eye(2)
    return PolarizationState(raw / probability), probability


def _pauli_coefficients(model: QfcChannelModel) -> np.ndarray:
    """Kraus operator expanded as K = a*X + i*b*Y -> (0, a, i*b, 0)."""
    root_cw = np.sqrt(model.eta_cw)
    root_ccw = np.sqrt(model.eta_ccw) * np.exp(1j * model.phase_rad)
    a = 0.5 * (root_cw + root_ccw)
    b = 0.5 * (root_cw - root_ccw)
    return np.array([0.0, a, 1j * b, 0.0], dtype=complex)


def ideal_process() -> ProcessMatrix:
    """Pure bit flip: only the (X, X) element is nonzero and equals 1."""
    chi = np.zeros((4, 4), dtype=complex)
    chi[1, 1] = 1.0
    return ProcessMatrix(chi)


def kraus_to_chi(model: QfcChannelModel) -> ProcessMatrix:
    """Closed-form process matrix of the channel (trace-decreasing).

    The mixed-in part, tr(K^dag K rho) I/2 with K^dag K = s I + d Z, has chi
    (s/4) I4 + (d/4)(E_IZ + E_ZI + i E_XY - i E_YX).
    """
    c = _pauli_coefficients(model)
    chi = np.outer(c, c.conj())
    mix = model.depolarizing_mix
    if mix:
        s = 0.5 * (model.eta_cw + model.eta_ccw)
        d = 0.5 * (model.eta_ccw - model.eta_cw)
        depolarized = 0.25 * s * np.eye(4, dtype=complex)
        depolarized[0, 3] = depolarized[3, 0] = 0.25 * d
        depolarized[1, 2], depolarized[2, 1] = 0.25j * d, -0.25j * d
        chi = (1.0 - mix) * chi + mix * depolarized
    return ProcessMatrix(chi)


def apply_process(process: ProcessMatrix,
                  state: PolarizationState) -> tuple[PolarizationState, float]:
    """Act with a process matrix: rho -> sum_mn chi_mn P_m rho P_n."""
    out = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            coeff = process.chi[m, n]
            if coeff != 0:
                out += coeff * PAULI[m] @ state.matrix @ PAULI[n]
    probability = float(np.trace(out).real)
    if probability < 1e-15:
        raise DegenerateError("process output has vanishing probability")
    return PolarizationState(out / probability), probability


def simulate_tomography(
        model: QfcChannelModel) -> dict[str, tuple[PolarizationState, float]]:
    """Channel outputs for the four tomography inputs H, V, D, R."""
    return {label: apply_channel(PolarizationState.from_label(label), model)
            for label in TOMOGRAPHY_INPUTS}


def reconstruct_chi(inputs: Mapping[str, PolarizationState],
                    outputs: Mapping[str, tuple[PolarizationState, float]],
                    clip_tolerance: float = 1e-9) -> ProcessMatrix:
    """Linear-inversion process matrix from four input/output pairs.

    Outputs carry their success probabilities, so the reconstruction is of
    the unnormalized (trace-decreasing) channel. The result is symmetrized;
    eigenvalues within ``clip_tolerance`` below zero are snapped to zero.
    """
    if set(inputs) != set(outputs):
        raise DomainError("inputs and outputs must carry the same labels")
    labels = sorted(inputs)
    if len(labels) != 4:
        raise DomainError("tomography needs exactly four input states")
    v_in = np.column_stack([inputs[l].matrix.reshape(4) for l in labels])
    if np.linalg.matrix_rank(v_in, tol=1e-9) < 4:
        raise SingularityError(
            "input states are not tomographically complete (rank < 4)")
    v_out = np.column_stack([
        (outputs[l][1] * outputs[l][0].matrix).reshape(4) for l in labels])
    superop = v_out @ np.linalg.inv(v_in)

    chi = np.empty((4, 4), dtype=complex)
    for m in range(4):
        for n in range(4):
            basis = np.kron(PAULI[m], PAULI[n].T)
            chi[m, n] = np.trace(basis.conj().T @ superop) / 4.0
    chi = 0.5 * (chi + chi.conj().T)

    eigvals, eigvecs = np.linalg.eigh(chi)
    snapped = np.where((eigvals < 0) & (eigvals >= -clip_tolerance), 0.0, eigvals)
    chi = (eigvecs * snapped) @ eigvecs.conj().T
    return ProcessMatrix(chi)


def process_fidelity(process: ProcessMatrix) -> float:
    """Overlap with the ideal bit flip: normalized (X, X) element of chi."""
    trace = process.trace
    if trace <= 1e-15:
        raise DegenerateError("process matrix has (near-)zero trace")
    return float(process.chi[1, 1].real / trace)


@dataclass(frozen=True)
class EfficiencyCurveParams:
    """Saturation-curve parameters: peak efficiency and power-normalization rate."""

    eta_max: float
    eta_nor_per_mw: float

    def __post_init__(self) -> None:
        if self.eta_max <= 0 or self.eta_nor_per_mw <= 0:
            raise DomainError("efficiency parameters must be positive")


def efficiency_model(power_mw, params: EfficiencyCurveParams):
    """Conversion efficiency eta_max * sin^2(sqrt(eta_nor * P)) for P in mW."""
    p = np.asarray(power_mw, dtype=float)
    if np.any(p < 0):
        raise DomainError("pump power must be non-negative")
    out = params.eta_max * np.sin(np.sqrt(params.eta_nor_per_mw * p)) ** 2
    return float(out) if np.ndim(power_mw) == 0 else out


@dataclass(frozen=True)
class EfficiencyFit:
    params: EfficiencyCurveParams
    residual_norm: float


def fit_efficiency(power_mw, eta) -> EfficiencyFit:
    """Least-squares fit of the saturation curve to (power, efficiency) data.

    The only user of scipy: it is imported here, so that importing the
    package and starting any other command do not pay for it.
    """
    from scipy.optimize import curve_fit

    p = np.asarray(power_mw, dtype=float)
    e = np.asarray(eta, dtype=float)
    if p.size != e.size or p.size < 3:
        raise DegenerateError("need at least 3 matching (P, eta) points")
    if np.ptp(p) <= 0:
        raise DegenerateError("power values must span a non-degenerate range")
    if np.max(np.abs(e)) == 0:
        raise DegenerateError("all efficiencies are zero; nothing to fit")

    def curve(x, eta_max, eta_nor):
        return eta_max * np.sin(np.sqrt(eta_nor * x)) ** 2

    eta_max0 = min(max(float(np.max(e)), 1e-3), 1.0)
    p_at_max = float(p[int(np.argmax(e))])
    eta_nor0 = (np.pi / 2.0) ** 2 / p_at_max if p_at_max > 0 else 1.0 / float(np.max(p))
    try:
        popt, _ = curve_fit(curve, p, e, p0=(eta_max0, eta_nor0),
                            bounds=([0.0, 0.0], [1.0, np.inf]), maxfev=10000)
    except RuntimeError as exc:
        raise ConvergenceError(f"efficiency fit did not converge: {exc}") from exc
    params = EfficiencyCurveParams(float(popt[0]), float(popt[1]))
    residual = float(np.linalg.norm(curve(p, *popt) - e))
    return EfficiencyFit(params, residual)


@dataclass(frozen=True)
class PumpSplit:
    p_ccw_mw: float
    p_cw_mw: float
    eta_ccw: float
    eta_cw: float
    equalized: bool


def pump_balance(params_ccw: EfficiencyCurveParams, params_cw: EfficiencyCurveParams,
                 total_power_mw: float, tolerance: float = 1e-9) -> PumpSplit:
    """Split a total pump power so both arms convert with equal efficiency.

    The efficiency gap eta_ccw - eta_cw is < 0 at ratio 0 and > 0 at ratio 1;
    past saturation it changes sign more than once. Every sign change on a
    ratio grid that resolves the sin^2 oscillations is bisected, all together,
    and the equalizing split that converts best is returned. ``equalized`` is
    False when its gap exceeds the tolerance.
    """
    if not 0 <= total_power_mw < np.inf:
        raise DomainError("total power must be finite and non-negative")
    if total_power_mw == 0:
        return PumpSplit(0.0, 0.0, 0.0, 0.0, True)

    def gap(ratio):
        return (efficiency_model(ratio * total_power_mw, params_ccw)
                - efficiency_model((1.0 - ratio) * total_power_mw, params_cw))

    # sin^2(sqrt(eta_nor * P)) is monotone on pieces of pi/2 in sqrt(eta_nor * P)
    pieces = np.sqrt(max(params_ccw.eta_nor_per_mw, params_cw.eta_nor_per_mw)
                     * total_power_mw) / (0.5 * np.pi)
    grid = np.linspace(0.0, 1.0, _BALANCE_GRID * (1 + int(pieces)) + 1)
    below = gap(grid) <= 0.0
    brackets = np.nonzero(below[:-1] != below[1:])[0]
    lo, hi, lo_below = grid[brackets], grid[brackets + 1], below[brackets]
    for _ in range(_BALANCE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        to_lo = (gap(mid) <= 0.0) == lo_below
        lo, hi = np.where(to_lo, mid, lo), np.where(to_lo, hi, mid)
    roots = 0.5 * (lo + hi)
    ratio = float(roots[np.argmax(efficiency_model(roots * total_power_mw, params_ccw))])
    p_ccw = ratio * total_power_mw
    p_cw = total_power_mw - p_ccw
    eta_ccw = efficiency_model(p_ccw, params_ccw)
    eta_cw = efficiency_model(p_cw, params_cw)
    return PumpSplit(p_ccw, p_cw, eta_ccw, eta_cw,
                     abs(eta_ccw - eta_cw) <= tolerance)


def chi_payload(process: ProcessMatrix) -> dict:
    """JSON-ready serialization: row-major [real, imag] pairs, basis documented."""
    return {
        "basis": list(PAULI_LABELS),
        "layout": "row-major",
        "chi": [[[float(z.real), float(z.imag)] for z in row]
                for row in np.asarray(process.chi)],
    }


def chi_from_payload(payload: dict) -> ProcessMatrix:
    if tuple(payload.get("basis", ())) != PAULI_LABELS:
        raise DomainError("chi payload must use the (I, X, Y, Z) Pauli basis")
    rows = payload["chi"]
    chi = np.array([[complex(re, im) for re, im in row] for row in rows])
    return ProcessMatrix(chi)
