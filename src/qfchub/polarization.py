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

import cmath
import functools
import math
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


def _pauli_transfer() -> np.ndarray:
    """T with vec(chi) = T @ vec(S) for a superoperator S (row-major vec).

    chi_mn = tr(B_mn^dag S) / 4 with B_mn = P_m (x) P_n^T, so row 4m + n of T
    is conj(vec(B_mn)) / 4; (P_m (x) P_n^T)[2i + k, 2j + l] = P_m[i, j] P_n[l, k].
    """
    p = np.conj(PAULI)
    # axes (m, i, j, n, k, l) -> (m, n, i, k, j, l)
    outer = np.multiply.outer(p, p.transpose(0, 2, 1)).transpose(0, 3, 1, 4, 2, 5)
    return outer.reshape(16, 16) / 4.0


_PAULI_TRANSFER = _pauli_transfer()

_FRAME_CACHE_SIZE = 4  # input frames whose inverse reconstruct_chi keeps

_HERM_TOL = 1e-9
_PSD_TOL = 1e-12
_CLIP_TOL = 1e-9  # reconstructed chi eigenvalues this far below 0 are snapped to 0
_EQUALIZED_TOL = 1e-9  # largest efficiency gap pump_balance reports as equalized

_FIT_RTOL = 1e-12  # relative change of eta_nor at which fit_efficiency stops
_FIT_FTOL = 1e-12  # ... or when a step lowers the cost by this much relative, or less
_FIT_DAMPING = 1e-3  # initial Marquardt damping of fit_efficiency
_FIT_MIN_DAMPING = 1e-12
_FIT_MAX_DAMPING = 1e12
_FIT_MAX_STEPS = 1000

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
        _check_state(*m.ravel().tolist())
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_amplitudes(cls, alpha: complex, beta: complex) -> "PolarizationState":
        parts = np.array([alpha, beta], dtype=complex).view(float)
        largest = np.abs(parts).max()
        if not 0.0 < largest < math.inf:  # NaN too
            raise DomainError("amplitudes must be finite and not both 0")
        # the power of two that brings the largest part into [0.5, 1) is exact, and
        # with it no square the norm sums overflows or underflows
        vec = np.ldexp(parts, -np.frexp(largest)[1]).view(complex)
        vec = vec / np.linalg.norm(vec)
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def from_label(cls, label: str) -> "PolarizationState":
        """The state of a label, one shared instance per label (read-only matrix)."""
        try:
            return _LABEL_STATES[label.upper()]
        except KeyError:
            raise DomainError(
                f"unknown state label {label!r}; expected one of "
                f"{'/'.join(_STATE_AMPLITUDES)}") from None

    def bloch_vector(self) -> tuple[float, float, float]:
        return tuple(float(np.trace(self.matrix @ p).real) for p in PAULI[1:])


def _check_state(a: complex, b: complex, c: complex, d: complex) -> None:
    """Density-matrix rules on [[a, b], [c, d]], entry by entry, so that a NaN fails."""
    if not (2.0 * abs(a.imag) <= _HERM_TOL and 2.0 * abs(d.imag) <= _HERM_TOL
            and abs(b - c.conjugate()) <= _HERM_TOL):
        raise DomainError("density matrix must be Hermitian")
    if not abs(a.real + d.real - 1.0) <= 1e-9:
        raise DomainError("density matrix must have unit trace")
    # smaller eigenvalue of the Hermitian matrix on its lower triangle, which eigvalsh reads
    half_sum, half_diff = 0.5 * (a.real + d.real), 0.5 * (a.real - d.real)
    if not half_sum - math.sqrt(half_diff * half_diff + c.real * c.real
                                + c.imag * c.imag) >= -_PSD_TOL:
        raise DomainError("density matrix must be positive semidefinite")


_LABEL_STATES = {label: PolarizationState.from_amplitudes(*amplitudes)
                 for label, amplitudes in _STATE_AMPLITUDES.items()}
for _state in _LABEL_STATES.values():
    _state.matrix.setflags(write=False)


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
        if not math.isfinite(self.phase_rad):
            raise DomainError(f"phase_rad must be finite, got {self.phase_rad}")


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
        return float(self.chi.trace().real)


def apply_channel(state: PolarizationState,
                  model: QfcChannelModel) -> tuple[PolarizationState, float]:
    """Channel action on a state: (normalized output, success probability).

    K is anti-diagonal, so K rho K^dag = [[eta_cw rho_VV, c* rho_VH],
    [c rho_HV, eta_ccw rho_HH]] with c = sqrt(eta_cw eta_ccw) e^{i phase};
    the four entries and the depolarizing mix are worked out on scalars.
    """
    return next(_apply_channel(model, (state,)))


def _apply_channel(model: QfcChannelModel, states):
    """Yield apply_channel of each state, with the model's part of c computed once."""
    coherence = cmath.rect(math.sqrt(model.eta_cw * model.eta_ccw), model.phase_rad)
    for state in states:
        (hh, hv), (vh, vv) = state.matrix.tolist()
        raw_hh, raw_vv = model.eta_cw * vv, model.eta_ccw * hh
        prob = raw_hh.real + raw_vv.real
        if prob < 1e-15:
            raise DegenerateError("channel success probability vanishes for this input")
        keep, even = (1.0 - model.depolarizing_mix) / prob, 0.5 * model.depolarizing_mix
        c = keep * coherence
        entries = (keep * raw_hh + even, c.conjugate() * vh, c * hv, keep * raw_vv + even)
        _check_state(*entries)
        out = object.__new__(PolarizationState)  # checked above, on its entries
        object.__setattr__(out, "matrix", np.array(entries, dtype=complex).reshape(2, 2))
        yield out, prob


def _pauli_coefficients(model: QfcChannelModel) -> np.ndarray:
    """Kraus operator expanded as K = a*X + i*b*Y -> (0, a, i*b, 0)."""
    root_cw = np.sqrt(model.eta_cw)
    root_ccw = np.sqrt(model.eta_ccw) * np.exp(1j * model.phase_rad)
    a = 0.5 * (root_cw + root_ccw)
    b = 0.5 * (root_cw - root_ccw)
    return np.array([0.0, a, 1j * b, 0.0], dtype=complex)


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


def simulate_tomography(
        model: QfcChannelModel) -> dict[str, tuple[PolarizationState, float]]:
    """Channel outputs for the four tomography inputs H, V, D, R."""
    states = [PolarizationState.from_label(label) for label in TOMOGRAPHY_INPUTS]
    return dict(zip(TOMOGRAPHY_INPUTS, _apply_channel(model, states)))


@functools.lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _frame_inverse(frame: bytes) -> np.ndarray:
    """V_in^-1 of the input frame whose four density matrices are ``frame``.

    ``frame`` holds the matrices row-major, one after another; V_in has
    them as columns. The inverse is read-only, and an incomplete frame
    raises here every time, since lru_cache keeps no exception.
    """
    v_in = np.frombuffer(frame, dtype=complex).reshape(4, 4).T
    if np.linalg.matrix_rank(v_in, tol=1e-9) < 4:
        raise SingularityError(
            "input states are not tomographically complete (rank < 4)")
    inverse = np.linalg.inv(v_in)
    inverse.setflags(write=False)
    return inverse


def reconstruct_chi(inputs: Mapping[str, PolarizationState],
                    outputs: Mapping[str, tuple[PolarizationState, float]]) -> ProcessMatrix:
    """Linear-inversion process matrix from four input/output pairs.

    Outputs carry their success probabilities, so the reconstruction is of
    the unnormalized (trace-decreasing) channel. The result is symmetrized;
    eigenvalues within ``_CLIP_TOL`` below zero are snapped to zero.
    The inverse of the input frame is cached for the last few frames.
    """
    if set(inputs) != set(outputs):
        raise DomainError("inputs and outputs must carry the same labels")
    labels = sorted(inputs)
    if len(labels) != 4:
        raise DomainError("tomography needs exactly four input states")
    v_in_inverse = _frame_inverse(b"".join(inputs[l].matrix.tobytes() for l in labels))
    for label in labels:  # a state's trace, so a probability, may be 1e-9 over 1
        if not 0.0 <= (prob := outputs[label][1]) <= 1.0 + 1e-9:
            raise DomainError(f"success probability {prob} of {label!r} is not in [0, 1]")
    # V_out: the row-major outputs as columns, like the inputs in V_in, in C order
    stacked = np.array([outputs[l][1] * outputs[l][0].matrix for l in labels])
    superop = stacked.reshape(4, 4).T.copy() @ v_in_inverse
    chi = (_PAULI_TRANSFER @ superop.reshape(16)).reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)

    eigvals, eigvecs = np.linalg.eigh(chi)
    if eigvals[0] < 0.0:  # ascending: with none below 0 there is nothing to snap
        eigvals = np.where((eigvals < 0) & (eigvals >= -_CLIP_TOL), 0.0, eigvals)
    chi = (eigvecs * eigvals) @ eigvecs.conj().T
    return ProcessMatrix(chi)


def process_fidelity(process: ProcessMatrix) -> float:
    """Overlap with the ideal bit flip: normalized (X, X) element of chi."""
    trace = process.trace
    if not 1e-15 < trace < math.inf:  # NaN too
        raise DegenerateError(f"process matrix has (near-)zero or non-finite trace {trace}")
    return float(process.chi[1, 1].real / trace)


@dataclass(frozen=True)
class EfficiencyCurveParams:
    """Saturation-curve parameters: peak efficiency and power-normalization rate."""

    eta_max: float
    eta_nor_per_mw: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eta_max < math.inf and 0.0 < self.eta_nor_per_mw < math.inf):
            raise DomainError("efficiency parameters must be finite and positive")


def _saturation(power_mw, eta_max, eta_nor):
    """eta_max * sin^2(sqrt(eta_nor * P)), unchecked: the one saturation formula."""
    return eta_max * np.square(np.sin(np.sqrt(eta_nor * power_mw)))


def efficiency_model(power_mw, params: EfficiencyCurveParams):
    """Conversion efficiency eta_max * sin^2(sqrt(eta_nor * P)) for P in mW."""
    p = np.asarray(power_mw, dtype=float)
    if not (np.isfinite(p) & (p >= 0.0)).all():
        raise DomainError("pump power must be finite and non-negative")
    out = _saturation(p, params.eta_max, params.eta_nor_per_mw)
    return float(out) if np.ndim(power_mw) == 0 else out


@dataclass(frozen=True)
class EfficiencyFit:
    params: EfficiencyCurveParams
    residual_norm: float


def _projected_fit(p: np.ndarray, e: np.ndarray, eta_nor: float):
    """Model shape s at eta_nor and the eta_max in [0, 1] that fits e best.

    The model eta_max * s is linear in eta_max, so its least-squares value
    is s.e / s.s, clipped to the bounds. Returns (s, s.s, eta_max, r, r.r)
    with residual r = eta_max * s - e.
    """
    s = _saturation(p, 1.0, eta_nor)
    norm = float(s.dot(s))
    eta_max = min(max(float(s.dot(e)) / norm, 0.0), 1.0) if norm > 0.0 else 0.0
    r = eta_max * s - e
    return s, norm, eta_max, r, float(r.dot(r))


def fit_efficiency(power_mw, eta) -> EfficiencyFit:
    """Least-squares fit of the saturation curve to (power, efficiency) data.

    Levenberg-Marquardt-damped Gauss-Newton on (eta_max, eta_nor) with
    eta_max in [0, 1] projected in closed form after every step, started
    from the peak of the data: eta_nor = (pi/2)^2 / P at the largest
    efficiency. It stops when a step changes eta_nor by at most
    ``_FIT_RTOL`` relative, or lowers the cost by at most ``_FIT_FTOL``
    relative: with large residuals Gauss-Newton converges slowly, and its
    last steps move eta_nor within a valley that rounding makes flat.
    """
    p = np.asarray(power_mw, dtype=float)
    e = np.asarray(eta, dtype=float)
    if p.ndim != 1 or e.ndim != 1:
        raise DomainError("power and efficiency values must be 1-D sequences")
    powers, etas = p.tolist(), e.tolist()  # the checks run on Python floats
    if len(powers) != len(etas) or len(powers) < 3:
        raise DegenerateError("need at least 3 matching (P, eta) points")
    if not all(map(math.isfinite, powers + etas)):
        raise DomainError("power and efficiency values must be finite")
    if min(powers) < 0.0:
        raise DomainError("pump power must be non-negative")
    if max(powers) - min(powers) <= 0:
        raise DegenerateError("power values must span a non-degenerate range")
    if not any(etas):
        raise DegenerateError("all efficiencies are zero; nothing to fit")

    p_at_max = powers[etas.index(max(etas))]  # the first largest, as np.argmax
    eta_nor = (np.pi / 2.0) ** 2 / p_at_max if p_at_max > 0 else 1.0 / max(powers)
    s, a11, eta_max, r, cost = _projected_fit(p, e, eta_nor)
    if eta_max == 0.0:
        raise DegenerateError("efficiencies do not follow the saturation curve: the best "
                              "eta_max at the peak's eta_nor is 0; nothing to fit")
    damping = _FIT_DAMPING
    for _ in range(_FIT_MAX_STEPS):
        # normal equations of J = (s, eta_max * ds/deta_nor); .dot is @ without its dispatch
        x = np.sqrt(eta_nor * p)
        ds = np.sin(2.0 * x) * x / (2.0 * eta_nor)
        a12, a22 = eta_max * float(s.dot(ds)), eta_max ** 2 * float(ds.dot(ds))
        g1, g2 = float(s.dot(r)), eta_max * float(ds.dot(r))
        while True:
            d11, d22 = a11 * (1.0 + damping), a22 * (1.0 + damping)
            det = d11 * d22 - a12 * a12 if eta_max < 1.0 else d22
            if not 0.0 < det < math.inf:
                raise ConvergenceError("efficiency fit: singular Gauss-Newton step")
            if eta_max < 1.0:
                step_max, step = (a12 * g2 - d22 * g1) / det, (a12 * g1 - d11 * g2) / det
            else:  # eta_max on its upper bound: only eta_nor moves
                step_max, step = 0.0, -g2 / det
            # cost reduction the linearized model predicts for the step
            predicted = -(2.0 * (g1 * step_max + g2 * step) + a11 * step_max ** 2
                          + 2.0 * a12 * step_max * step + a22 * step ** 2)
            small_step = abs(step) <= _FIT_RTOL * eta_nor
            trial = eta_nor + step
            trial_fit = _projected_fit(p, e, trial) if trial > 0.0 else None
            if trial_fit is not None and trial_fit[-1] <= cost:
                reduction = cost - trial_fit[-1]
                eta_nor = trial
                s, a11, eta_max, r, cost = trial_fit
                # gain-ratio rule: damp more where the model overpromised
                # (Gauss-Newton overshoots where the residuals are large)
                if reduction < 0.25 * predicted:
                    damping *= 10.0
                elif reduction > 0.75 * predicted:
                    damping = max(0.1 * damping, _FIT_MIN_DAMPING)
                break
            if small_step:  # rejected, and too small to matter
                reduction = 0.0
                break
            damping *= 10.0
            if damping > _FIT_MAX_DAMPING:
                raise ConvergenceError(
                    f"efficiency fit did not converge: damping above {_FIT_MAX_DAMPING:g}")
        # done once a step changes eta_nor, or the cost, by no more than rounding
        if small_step or reduction <= _FIT_FTOL * (cost + reduction):
            return EfficiencyFit(EfficiencyCurveParams(eta_max, eta_nor), math.sqrt(cost))
    raise ConvergenceError(f"efficiency fit did not converge in {_FIT_MAX_STEPS} steps")


@dataclass(frozen=True)
class PumpSplit:
    p_ccw_mw: float
    p_cw_mw: float
    eta_ccw: float
    eta_cw: float
    equalized: bool


def pump_balance(params_ccw: EfficiencyCurveParams, params_cw: EfficiencyCurveParams,
                 total_power_mw: float) -> PumpSplit:
    """Split a total pump power so both arms convert with equal efficiency.

    The efficiency gap eta_ccw - eta_cw is < 0 at ratio 0 and > 0 at ratio 1;
    past saturation it changes sign more than once. Every sign change on a
    ratio grid that resolves the sin^2 oscillations is bisected, all together;
    a grid point where the gap is exactly 0 is a root as well. The equalizing
    split that converts best is returned. ``equalized`` is False when its gap
    exceeds ``_EQUALIZED_TOL``.
    """
    if not 0 <= total_power_mw < np.inf:
        raise DomainError("total power must be finite and non-negative")
    if total_power_mw == 0:
        return PumpSplit(0.0, 0.0, 0.0, 0.0, True)

    max_ccw, nor_ccw = params_ccw.eta_max, params_ccw.eta_nor_per_mw
    max_cw, nor_cw = params_cw.eta_max, params_cw.eta_nor_per_mw

    def gap(ratio):
        return (_saturation(ratio * total_power_mw, max_ccw, nor_ccw)
                - _saturation((1.0 - ratio) * total_power_mw, max_cw, nor_cw))

    # sin^2(sqrt(eta_nor * P)) is monotone on pieces of pi/2 in sqrt(eta_nor * P)
    pieces = np.sqrt(max(nor_ccw, nor_cw) * total_power_mw) / (0.5 * np.pi)
    grid = np.linspace(0.0, 1.0, _BALANCE_GRID * (1 + int(pieces)) + 1)
    gaps = gap(grid)
    below = gaps <= 0.0
    brackets = np.nonzero(below[:-1] != below[1:])[0]
    lo, hi, lo_below = grid[brackets], grid[brackets + 1], below[brackets]
    for _ in range(_BALANCE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            # a bracket whose midpoint is one of its ends keeps 0.5 * (lo + hi)
            # equal to that midpoint in every later step, whichever end moves
            break
        to_lo = (gap(mid) <= 0.0) == lo_below
        lo, hi = np.where(to_lo, mid, lo), np.where(to_lo, hi, mid)
    # a grid point on a root is one too: where both efficiencies underflow
    # to 0 the gap is 0 everywhere and changes sign nowhere
    roots = np.concatenate((0.5 * (lo + hi), grid[gaps == 0.0]))
    ratio = float(roots[np.argmax(efficiency_model(roots * total_power_mw, params_ccw))])
    p_ccw = ratio * total_power_mw
    p_cw = total_power_mw - p_ccw
    eta_ccw = efficiency_model(p_ccw, params_ccw)
    eta_cw = efficiency_model(p_cw, params_cw)
    return PumpSplit(p_ccw, p_cw, eta_ccw, eta_cw,
                     abs(eta_ccw - eta_cw) <= _EQUALIZED_TOL)
