import cmath
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfchub import (ConvergenceError, DegenerateError, DomainError,
                    EfficiencyCurveParams, PolarizationState, ProcessMatrix,
                    PumpSplit, QfcChannelModel,
                    SingularityError, apply_channel, efficiency_model,
                    fit_efficiency, kraus_to_chi,
                    process_fidelity, pump_balance, reconstruct_chi,
                    simulate_tomography)
from qfchub.polarization import (_BALANCE_BISECTIONS, _BALANCE_GRID, _CLIP_TOL,
                                 _FIT_DAMPING, _FIT_FTOL, _FIT_MAX_DAMPING, _FIT_MAX_STEPS,
                                 _FIT_MIN_DAMPING, _FIT_RTOL, _FRAME_CACHE_SIZE,
                                 _PAULI_TRANSFER, _STATE_AMPLITUDES, PAULI,
                                 TOMOGRAPHY_INPUTS, EfficiencyFit,
                                 _frame_inverse, _saturation)

BALANCED = QfcChannelModel(eta_cw=0.5, eta_ccw=0.5)


def closed_form_fidelity(model: QfcChannelModel) -> float:
    num = abs(np.sqrt(model.eta_cw)
              + np.sqrt(model.eta_ccw) * np.exp(1j * model.phase_rad)) ** 2
    return num / (2.0 * (model.eta_cw + model.eta_ccw))


def random_model(rng) -> QfcChannelModel:
    return QfcChannelModel(eta_cw=float(rng.uniform(0.05, 1.0)),
                           eta_ccw=float(rng.uniform(0.05, 1.0)),
                           phase_rad=float(rng.uniform(-np.pi, np.pi)))


def random_state(rng) -> PolarizationState:
    alpha = rng.normal() + 1j * rng.normal()
    beta = rng.normal() + 1j * rng.normal()
    if abs(alpha) + abs(beta) < 1e-6:
        alpha = 1.0
    return PolarizationState.from_amplitudes(alpha, beta)


def random_frame(rng) -> dict[str, PolarizationState]:
    """Four random states, pure or partly mixed, under the tomography labels."""
    frame = {}
    for label in "HVDR":
        pure = random_state(rng).matrix
        mix = float(rng.uniform(0.0, 0.5))
        frame[label] = PolarizationState((1.0 - mix) * pure + 0.5 * mix * np.eye(2))
    return frame


def kraus_operator(model: QfcChannelModel) -> np.ndarray:
    """K = sqrt(eta_cw)|H><V| + sqrt(eta_ccw) e^{i phase} |V><H|, the channel's
    reference matrix."""
    k = np.zeros((2, 2), dtype=complex)
    k[0, 1] = np.sqrt(model.eta_cw)
    k[1, 0] = np.sqrt(model.eta_ccw) * np.exp(1j * model.phase_rad)
    return k


def apply_channel_matmul(state, model):
    """apply_channel as K rho K^dag with the matrix of kraus_operator."""
    k = kraus_operator(model)
    raw = k @ state.matrix @ k.conj().T
    probability = float(np.trace(raw).real)
    mix = model.depolarizing_mix
    raw = (1.0 - mix) * raw + mix * probability * 0.5 * np.eye(2)
    return raw / probability, probability


@settings(max_examples=300, deadline=None)
@given(eta_cw=st.floats(0.01, 1.0), eta_ccw=st.floats(0.01, 1.0),
       phase=st.floats(-10.0, 10.0), mix=st.just(0.0) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), state_mix=st.just(0.0) | st.floats(0.0, 1.0))
def test_apply_channel_equals_kraus_matmul(eta_cw, eta_ccw, phase, mix, seed, state_mix):
    model = QfcChannelModel(eta_cw, eta_ccw, phase, mix)
    pure = random_state(np.random.default_rng(seed)).matrix
    state = PolarizationState((1.0 - state_mix) * pure + 0.5 * state_mix * np.eye(2))
    out, probability = apply_channel(state, model)
    expected, expected_probability = apply_channel_matmul(state, model)
    assert abs(probability - expected_probability) <= 1e-15
    assert np.max(np.abs(out.matrix - expected)) <= 1e-15


def test_channel_rejects_non_finite_phase():
    for phase in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            QfcChannelModel(0.5, 0.5, phase)


def test_balanced_channel_is_bit_flip():
    for label, expect in (("H", (0.0, 0.0, -1.0)), ("V", (0.0, 0.0, 1.0)),
                          ("D", (1.0, 0.0, 0.0)), ("R", (0.0, -1.0, 0.0))):
        out, _ = apply_channel(PolarizationState.from_label(label), BALANCED)
        assert out.bloch_vector() == pytest.approx(expect, abs=1e-12)


def test_balanced_channel_equals_x_conjugation(rng):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(50):
        state = random_state(rng)
        out, _ = apply_channel(state, BALANCED)
        assert np.allclose(out.matrix, x @ state.matrix @ x, atol=1e-12)


def test_balanced_success_probability_is_eta(rng):
    model = QfcChannelModel(eta_cw=0.37, eta_ccw=0.37)
    for _ in range(20):
        _, prob = apply_channel(random_state(rng), model)
        assert prob == pytest.approx(0.37, rel=1e-12)


def test_unbalanced_diagonal_input_oracle():
    # independent 2x2 matrix arithmetic for eta=(0.40 cw, 0.44 ccw), phase 0
    k = np.array([[0.0, np.sqrt(0.40)], [np.sqrt(0.44), 0.0]], dtype=complex)
    d = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = np.outer(d, d.conj())
    raw = k @ rho @ k.conj().T
    prob = np.trace(raw).real
    expected = raw / prob

    model = QfcChannelModel(eta_cw=0.40, eta_ccw=0.44)
    out, got_prob = apply_channel(PolarizationState.from_label("D"), model)
    assert got_prob == pytest.approx(prob, rel=1e-12)
    assert np.allclose(out.matrix, expected, atol=1e-12)
    assert out.bloch_vector()[0] == pytest.approx(0.9988655696858586, abs=1e-12)


def test_phase_rotates_equator():
    model = QfcChannelModel(eta_cw=0.5, eta_ccw=0.5, phase_rad=np.pi)
    out, _ = apply_channel(PolarizationState.from_label("D"), model)
    anti_diagonal = PolarizationState.from_label("A")
    assert np.allclose(out.matrix, anti_diagonal.matrix, atol=1e-12)


def test_channel_output_stays_physical(rng):
    for _ in range(1000):
        model = random_model(rng)
        if rng.uniform() < 0.3:
            model = QfcChannelModel(model.eta_cw, model.eta_ccw, model.phase_rad,
                                    depolarizing_mix=float(rng.uniform(0, 1)))
        out, prob = apply_channel(random_state(rng), model)
        m = out.matrix
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
        assert 0.0 < prob <= 1.0


def test_degenerate_channel_raises():
    model = QfcChannelModel(eta_cw=0.0, eta_ccw=0.5)
    with pytest.raises(DegenerateError):
        apply_channel(PolarizationState.from_label("V"), model)


def test_state_validation():
    with pytest.raises(DomainError):
        PolarizationState(np.array([[0.6, 0.5], [0.5, 0.4]]) + 0.2j * np.eye(2))
    with pytest.raises(DomainError):
        PolarizationState(np.eye(2))  # trace 2
    with pytest.raises(DomainError):
        PolarizationState.from_amplitudes(0.0, 0.0)
    with pytest.raises(DomainError):
        PolarizationState.from_label("Q")


def test_from_amplitudes_rejects_non_finite_without_warning():
    for alpha, beta in ((np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf),
                        (complex(0.5, np.nan), 0.5), (1.0, complex(np.inf, 1.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                PolarizationState.from_amplitudes(alpha, beta)


@pytest.mark.parametrize("amplitudes, reference", [
    ((1e200, 1e199), (10.0, 1.0)), ((1e-200, 1e-200), "D"), ((1e-170, 0.0), "H"),
    ((-1e-200j, 1e-200j), "A"),
    # subnormal amplitudes, down to the smallest float
    ((1e-320, 0.0), "H"), ((5e-324, 5e-324), "D"), ((1e-310, 1e-310j), "R")])
def test_from_amplitudes_takes_squares_that_overflow_or_underflow(amplitudes, reference):
    # finite amplitudes whose |a|^2 + |b|^2 is inf or 0 in float64 still give a state
    want = (PolarizationState.from_label(reference) if isinstance(reference, str)
            else PolarizationState.from_amplitudes(*reference))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = PolarizationState.from_amplitudes(*amplitudes)
    np.testing.assert_allclose(state.matrix, want.matrix, rtol=0, atol=4e-16)


def test_label_states_keep_the_bits_of_the_plain_division():
    # every label state keeps the bits of the plain division by its norm
    for label in ("H", "V", "D", "A", "R", "L"):
        vec = np.array(_STATE_AMPLITUDES[label], dtype=complex)
        vec = vec / np.linalg.norm(vec)
        assert (PolarizationState.from_label(label).matrix
                == np.outer(vec, vec.conj())).all(), label


# a real or imaginary part: 0, or of a magnitude whose square is a normal float,
# and with four of them the squared norm neither overflows nor underflows
_PART = st.just(0.0) | st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True)
                                 | st.floats(-1.0, -0.5, exclude_min=True),
                                 st.integers(-497, 498))


@settings(max_examples=500, deadline=None)
@given(parts=st.tuples(_PART, _PART, _PART, _PART).filter(any))
def test_from_amplitudes_is_the_plain_division_where_squares_are_normal(parts):
    # the power-of-two prescale is exact, so the state has the bits of v / |v|
    vec = np.array([complex(*parts[:2]), complex(*parts[2:])])
    state = PolarizationState.from_amplitudes(*vec)
    vec = vec / np.linalg.norm(vec)
    assert (state.matrix == np.outer(vec, vec.conj())).all()


def eigvalsh_rule(m):
    """The density-matrix check as numpy's eigvalsh states it: the failing rule, or None."""
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        return "Hermitian"
    if abs(np.trace(m).real - 1.0) > 1e-9:
        return "unit trace"
    if np.min(np.linalg.eigvalsh(m)) < -1e-12:
        return "positive semidefinite"
    return None


def closed_form_rule(m):
    try:
        PolarizationState(m)
    except DomainError as exc:
        return next(rule for rule in ("Hermitian", "unit trace", "positive semidefinite")
                    if rule in str(exc))
    return None


# a matrix sits this far (relative) or more from the tolerance it is drawn at,
# well above the 1e-16 rounding in which eigvalsh and the closed form differ
_MARGIN = st.floats(1e-2, 0.5) | st.floats(-0.5, -1e-2)


@settings(max_examples=300, deadline=None)
@given(boundary=st.sampled_from(("hermitian-diagonal", "hermitian-off-diagonal",
                                 "trace", "psd")),
       margin=_MARGIN, theta=st.floats(0.0, np.pi), phi=st.floats(-np.pi, np.pi),
       skew=st.floats(0.0, 4e-10), small=st.floats(0.0, 1.0))
def test_state_check_equals_eigvalsh_rule(boundary, margin, theta, phi, skew, small):
    # a state with eigenvalues (1 - lam, lam) in the eigenbasis (theta, phi)
    u = np.array([[np.cos(theta / 2), -np.exp(-1j * phi) * np.sin(theta / 2)],
                  [np.exp(1j * phi) * np.sin(theta / 2), np.cos(theta / 2)]])
    lam = small * 0.5
    if boundary == "psd":
        lam = -1e-12 * (1.0 + margin)
    m = u @ np.diag([1.0 - lam, lam]) @ u.conj().T
    if boundary == "hermitian-diagonal":
        m[1, 1] += 0.5j * 1e-9 * (1.0 + margin)
    elif boundary == "hermitian-off-diagonal":
        m[0, 1] += 1e-9 * (1.0 + margin) * np.exp(1j * phi)
    elif boundary == "trace":
        m[0, 0] += 1e-9 * (1.0 + margin)
    else:
        m[0, 1] += skew  # the upper triangle, which neither rule reads for the PSD test
    assert closed_form_rule(m) == eigvalsh_rule(m)


def test_state_check_rejects_nan():
    for i in range(4):
        m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        m.flat[i] = np.nan
        with pytest.raises(DomainError):
            PolarizationState(m)


def test_label_states_are_shared_and_read_only():
    for label in ("H", "V", "D", "A", "R", "L"):
        state = PolarizationState.from_label(label)
        assert PolarizationState.from_label(label.lower()) is state
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0
        alpha, beta = {"H": (1, 0), "V": (0, 1), "D": (1, 1), "A": (1, -1),
                       "R": (1, 1j), "L": (1, -1j)}[label]
        assert np.allclose(state.matrix,
                           PolarizationState.from_amplitudes(alpha, beta).matrix,
                           atol=1e-15)


def test_kraus_to_chi_balanced_is_scaled_bit_flip():
    model = QfcChannelModel(eta_cw=0.3, eta_ccw=0.3)
    chi = kraus_to_chi(model)
    assert chi.trace == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(chi.chi, [[0, 0, 0, 0],
                                 [0, 0.3, 0, 0],
                                 [0, 0, 0, 0],
                                 [0, 0, 0, 0]], atol=1e-12)


def test_kraus_to_chi_quarter_phase_splits_x_y():
    model = QfcChannelModel(eta_cw=0.4, eta_ccw=0.4, phase_rad=np.pi / 2)
    chi = kraus_to_chi(model).chi
    assert chi[1, 1].real == pytest.approx(0.2, abs=1e-12)
    assert chi[2, 2].real == pytest.approx(0.2, abs=1e-12)


def test_kraus_decomposition_matches_operator():
    model = QfcChannelModel(eta_cw=0.7, eta_ccw=0.2, phase_rad=0.9)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    a = 0.5 * (np.sqrt(0.7) + np.sqrt(0.2) * np.exp(0.9j))
    b = 0.5 * (np.sqrt(0.7) - np.sqrt(0.2) * np.exp(0.9j))
    assert np.allclose(kraus_operator(model), a * x + 1j * b * y, atol=1e-15)


def test_simulate_tomography_ideal_actions():
    outputs = simulate_tomography(BALANCED)
    assert set(outputs) == {"H", "V", "D", "R"}
    expect = {"H": "V", "V": "H", "D": "D", "R": "L"}
    for label, (state, prob) in outputs.items():
        target = PolarizationState.from_label(expect[label])
        assert np.allclose(state.matrix, target.matrix, atol=1e-12)
        assert prob == pytest.approx(0.5, rel=1e-12)


def test_tomography_round_trip_property(rng):
    worst = 0.0
    for i in range(100):
        base = random_model(rng)
        # every other channel admixes depolarization, arms unequal in general
        mix = float(rng.uniform(0.0, 1.0)) if i % 2 else 0.0
        model = QfcChannelModel(base.eta_cw, base.eta_ccw, base.phase_rad, mix)
        outputs = simulate_tomography(model)
        inputs = {k: PolarizationState.from_label(k) for k in outputs}
        rebuilt = reconstruct_chi(inputs, outputs)
        worst = max(worst, float(np.max(np.abs(rebuilt.chi - kraus_to_chi(model).chi))))
    assert worst < 1e-9


def test_reconstruction_conditioning(rng):
    model = QfcChannelModel(eta_cw=0.42, eta_ccw=0.38, phase_rad=0.2)
    outputs = simulate_tomography(model)
    inputs = {k: PolarizationState.from_label(k) for k in outputs}
    clean = reconstruct_chi(inputs, outputs)
    noisy = {}
    for label, (state, prob) in outputs.items():
        bump = random_state(rng).matrix
        perturbed_state = PolarizationState((1.0 - 1e-6) * state.matrix
                                            + 1e-6 * bump)
        noisy[label] = (perturbed_state, prob * (1.0 + 1e-6 * rng.normal()))
    perturbed = reconstruct_chi(inputs, noisy)
    assert np.max(np.abs(perturbed.chi - clean.chi)) < 1e-4
    assert np.max(np.abs(perturbed.chi - clean.chi)) > 0.0


def test_reconstruction_requires_complete_inputs():
    model = QfcChannelModel(eta_cw=0.5, eta_ccw=0.5)
    # H, V, D, A span only a 3-dimensional operator subspace
    labels = ("H", "V", "D", "A")
    inputs = {k: PolarizationState.from_label(k) for k in labels}
    outputs = {k: apply_channel(inputs[k], model) for k in labels}
    for _ in range(3):  # an incomplete frame is never cached
        with pytest.raises(SingularityError):
            reconstruct_chi(inputs, outputs)
    with pytest.raises(DomainError):
        reconstruct_chi({"H": inputs["H"]}, {"H": outputs["H"]})


@pytest.mark.parametrize("probability", [np.nan, np.inf, -np.inf, -0.5, 2.0, 1.0 + 1e-6])
def test_reconstruct_chi_checks_each_probability(probability):
    # NaN or inf used to end in LinAlgError after RuntimeWarnings, -0.5 in a
    # "zero trace" error, 2.0 in a fidelity of 0.675
    outputs = simulate_tomography(QfcChannelModel(0.5, 0.5))
    inputs = {k: PolarizationState.from_label(k) for k in outputs}
    outputs["D"] = (outputs["D"][0], probability)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"probability .* of 'D' is not in \[0, 1\]"):
            reconstruct_chi(inputs, outputs)


def test_reconstruct_chi_takes_probabilities_rounded_above_one():
    # a lossless channel gives 1 + 2^-52 for D: rounding, inside a state's trace tolerance
    outputs = simulate_tomography(QfcChannelModel(1.0, 1.0))
    assert outputs["D"][1] == 1.0000000000000002
    inputs = {k: PolarizationState.from_label(k) for k in outputs}
    chi = reconstruct_chi(inputs, outputs)
    assert process_fidelity(chi) == pytest.approx(1.0, abs=1e-12)


def reconstruct_chi_kron_loop(inputs, outputs, clip_tolerance=1e-9):
    """reconstruct_chi with chi_mn = tr((P_m (x) P_n^T)^dag S) / 4, one element at a time."""
    labels = sorted(inputs)
    v_in = np.column_stack([inputs[l].matrix.reshape(4) for l in labels])
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
    return (eigvecs * snapped) @ eigvecs.conj().T


@settings(max_examples=200, deadline=None)
@given(eta_cw=st.floats(0.01, 1.0), eta_ccw=st.floats(0.01, 1.0),
       phase=st.floats(-np.pi, np.pi), mix=st.just(0.0) | st.floats(0.0, 1.0),
       frame=st.sampled_from(("labels", "pure", "mixed")), seed=st.integers(0, 2**32 - 1))
# a frame with condition number ~4e3, on which chi = (T (I4 (x) V_in^-T)) vec(V_out),
# the same product in another order, is 1.7e-14 away
@example(eta_cw=1.0, eta_ccw=1.0, phase=0.0, mix=0.0, frame="pure", seed=14354)
def test_reconstruct_chi_equals_kron_loop(eta_cw, eta_ccw, phase, mix, frame, seed):
    model = QfcChannelModel(eta_cw, eta_ccw, phase, mix)
    rng = np.random.default_rng(seed)
    if frame == "labels":  # the tomography inputs H, V, D, R
        inputs = {k: PolarizationState.from_label(k) for k in "HVDR"}
    elif frame == "pure":  # four random pure states, complete in general
        inputs = {k: random_state(rng) for k in "abcd"}
    else:  # four random partly mixed states
        inputs = random_frame(rng)
    outputs = {k: apply_channel(s, model) for k, s in inputs.items()}
    chi = reconstruct_chi(inputs, outputs).chi
    assert np.max(np.abs(chi - reconstruct_chi_kron_loop(inputs, outputs))) <= 1e-14


def test_reconstruct_chi_follows_the_input_frame(rng):
    # frames under the same labels, one after another: each needs its own map
    model = QfcChannelModel(0.7, 0.3, 0.8, 0.05)
    expected = kraus_to_chi(model).chi
    labels = {k: PolarizationState.from_label(k) for k in "HVDR"}
    for inputs in (labels, random_frame(rng), random_frame(rng), labels):
        outputs = {k: apply_channel(s, model) for k, s in inputs.items()}
        assert np.max(np.abs(reconstruct_chi(inputs, outputs).chi - expected)) < 1e-9


def test_frame_cache_is_bounded_and_read_only(rng):
    model = QfcChannelModel(0.6, 0.4, 0.3)
    for _ in range(3 * _FRAME_CACHE_SIZE):
        inputs = random_frame(rng)
        reconstruct_chi(inputs, {k: apply_channel(s, model) for k, s in inputs.items()})
        assert _frame_inverse.cache_info().currsize <= _FRAME_CACHE_SIZE
    frame = b"".join(inputs[k].matrix.tobytes() for k in sorted(inputs))
    with pytest.raises(ValueError):
        _frame_inverse(frame)[0, 0] = 0.0


def test_process_fidelity_examples():
    assert process_fidelity(kraus_to_chi(BALANCED)) == pytest.approx(1.0, abs=1e-9)
    quarter = QfcChannelModel(eta_cw=0.5, eta_ccw=0.5, phase_rad=np.pi / 2)
    assert process_fidelity(kraus_to_chi(quarter)) == pytest.approx(0.5, abs=1e-9)
    measured = QfcChannelModel(eta_cw=0.40, eta_ccw=0.44)
    assert process_fidelity(kraus_to_chi(measured)) == pytest.approx(0.9994, abs=1e-4)
    with pytest.raises(DegenerateError):
        process_fidelity(ProcessMatrix(np.zeros((4, 4))))


def test_process_fidelity_rejects_nan_trace_without_warning():
    for bad in (np.nan, np.inf):
        chi = kraus_to_chi(BALANCED).chi.copy()
        chi[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateError, match="trace"):
                process_fidelity(ProcessMatrix(chi))


def test_fidelity_closed_form_property(rng):
    for _ in range(100):
        model = random_model(rng)
        assert process_fidelity(kraus_to_chi(model)) == pytest.approx(
            closed_form_fidelity(model), abs=1e-9)


def test_depolarizing_fidelity_bound(rng):
    for _ in range(25):
        base = random_model(rng)
        eps = float(rng.uniform(0.0, 1.0))
        mixed = QfcChannelModel(base.eta_cw, base.eta_ccw, base.phase_rad, eps)
        f0 = closed_form_fidelity(base)
        # independent route: simulated tomography of the mixed channel
        outputs = simulate_tomography(mixed)
        inputs = {k: PolarizationState.from_label(k) for k in outputs}
        fid = process_fidelity(reconstruct_chi(inputs, outputs))
        assert fid == pytest.approx((1.0 - eps) * f0 + eps / 4.0, abs=1e-9)


def test_efficiency_model_examples():
    params = EfficiencyCurveParams(eta_max=0.44, eta_nor_per_mw=0.013)
    assert efficiency_model(0.0, params) == 0.0
    peak_power = (np.pi / 2.0) ** 2 / 0.013
    assert peak_power == pytest.approx(189.8, abs=0.1)
    assert efficiency_model(peak_power, params) == pytest.approx(0.44, abs=1e-12)
    small = 0.01
    assert efficiency_model(small, params) == pytest.approx(
        0.44 * 0.013 * small, rel=1e-3)
    with pytest.raises(DomainError):
        efficiency_model(-1.0, params)


def test_efficiency_model_rejects_non_finite_power_without_warning():
    params = EfficiencyCurveParams(0.44, 0.013)
    for bad in (np.inf, -np.inf, np.nan):
        for power in (bad, np.float64(bad), np.array(bad), np.array([10.0, bad])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="finite and non-negative"):
                    efficiency_model(power, params)


def test_efficiency_model_rejects_overflowing_product_without_warning():
    # eta_nor * P past the largest float: sin of inf would be NaN, after two warnings
    for params, power in ((EfficiencyCurveParams(0.44, 1e300), 1e300),
                          (EfficiencyCurveParams(0.44, 1e300), np.array([0.0, 1e10])),
                          (EfficiencyCurveParams(0.44, np.float64(2.0)), np.float64(1e308))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^eta_nor \\* P overflows at "):
                efficiency_model(power, params)
    # up to the largest float the product is finite and the model defined
    assert 0.0 <= efficiency_model(1e8, EfficiencyCurveParams(0.44, 1e300)) <= 0.44
    assert efficiency_model(np.array([]), EfficiencyCurveParams(0.44, 1e300)).size == 0


def test_fit_recovers_noiseless_parameters():
    powers = np.linspace(0.0, 250.0, 26)
    for eta_max, eta_nor in ((0.44, 0.013), (0.40, 0.018)):
        etas = efficiency_model(powers, EfficiencyCurveParams(eta_max, eta_nor))
        fit = fit_efficiency(powers, etas)
        assert fit.params.eta_max == pytest.approx(eta_max, rel=0.01)
        assert fit.params.eta_nor_per_mw == pytest.approx(eta_nor, rel=0.01)
        assert fit.residual_norm < 1e-6


def test_fit_with_multiplicative_noise(rng):
    powers = np.linspace(5.0, 250.0, 25)
    truth = EfficiencyCurveParams(0.44, 0.013)
    clean = efficiency_model(powers, truth)
    for _ in range(100):
        noisy = clean * (1.0 + 0.02 * rng.standard_normal(clean.shape))
        fit = fit_efficiency(powers, np.clip(noisy, 0.0, None))
        assert fit.params.eta_max == pytest.approx(0.44, rel=0.10)
        assert fit.params.eta_nor_per_mw == pytest.approx(0.013, rel=0.10)


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateError):
        fit_efficiency([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(DegenerateError):
        fit_efficiency([5.0, 5.0, 5.0], [0.1, 0.1, 0.1])
    with pytest.raises(DegenerateError):
        fit_efficiency([0.0, 10.0, 20.0], [0.0, 0.0, 0.0])


def test_fit_takes_only_1d_data():
    # a 2-D input used to raise a bare IndexError from p[argmax(e)]
    for powers, etas in (([[1, 2, 3]], [[0.1, 0.2, 0.3]]), ([1, 2, 3], [[0.1, 0.2, 0.3]]),
                         ([[1, 2, 3]], [0.1, 0.2, 0.3]), (5.0, 0.1)):
        with pytest.raises(DomainError, match="1-D"):
            fit_efficiency(powers, etas)


def test_fit_rejects_non_finite_or_negative_input():
    powers = np.linspace(0.0, 250.0, 26)
    etas = efficiency_model(powers, EfficiencyCurveParams(0.44, 0.013))
    for bad in (np.nan, np.inf, -np.inf):
        for p, e in ((powers, np.where(powers == 100.0, bad, etas)),
                     (np.where(powers == 100.0, bad, powers), etas)):
            with pytest.raises(DomainError, match="finite"):
                fit_efficiency(p, e)
    with pytest.raises(DomainError, match="non-negative"):
        fit_efficiency(powers - 10.0, etas)
    # past 1e50 (or a largest power below 1e-50 mW) the normal equations could
    # overflow: from about 1e154 they did, with a RuntimeWarning or an OverflowError
    top_p, top_eta = powers.max(), etas.max()
    for p, e in ((powers, etas * 1e160), (powers, etas * (2e50 / top_eta)),
                 (powers, etas - 2e50), (powers * 1e300, etas),
                 (powers * (2e50 / top_p), etas), (powers * 1e-160, etas),
                 (powers * (0.5e-50 / top_p), etas)):
        with pytest.raises(DomainError, match="largest power must lie in"):
            fit_efficiency(p, e)
    for scale in (1e50, 1e-50):  # the bounds themselves are fitted
        fit_efficiency(powers * (scale / top_p), etas)
    fit_efficiency(powers, etas * (1e50 / top_eta))


def test_fit_without_positive_overlap_is_degenerate():
    # no eta_max in (0, 1] brings the curve closer to these data than zero
    powers = np.linspace(0.0, 250.0, 26)
    etas = -efficiency_model(powers, EfficiencyCurveParams(0.44, 0.013))
    with pytest.raises(DegenerateError):
        fit_efficiency(powers, etas)


def test_fit_converges_on_data_far_from_the_curve():
    # large residuals: Gauss-Newton overshoots or crawls, and rounding
    # flattens the last steps; the fit must still stop, inside its bounds
    rng = np.random.default_rng(45)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        powers = np.sort(rng.uniform(0.0, float(rng.choice([1.0, 1e2, 1e3, 1e5])), n))
        fit = fit_efficiency(powers, rng.uniform(0.0, 2.0, n))
        assert 0.0 < fit.params.eta_max <= 1.0
        assert np.isfinite(fit.params.eta_nor_per_mw) and np.isfinite(fit.residual_norm)


def test_fit_starts_as_at_0_mw_where_the_peak_quotient_overflows():
    # (pi/2)^2 / P, or that times the largest power, overflows for a peak this
    # near 0 mW: the fit starts from 1 / max P, as for a peak at 0 mW, and so
    # gives that fit's bits (its s underflows to 0 there as at 0 mW)
    at_zero = fit_efficiency([0.0, 10.0, 20.0], [0.9, 0.1, 0.2])
    for near_zero in (5e-324, 1e-310, 4e-308):
        assert fit_efficiency([near_zero, 10.0, 20.0], [0.9, 0.1, 0.2]) == at_zero


def test_fit_non_finite_step_is_a_convergence_error():
    # from the peak at 1e-300 mW eta_nor starts at 2.5e300 /mW, and a step's
    # square overflows
    with pytest.raises(ConvergenceError, match="^efficiency fit: Gauss-Newton step is "
                                               "not finite$"):
        fit_efficiency([1e-300, 1e-10, 1e-10], [1e10, 0.52, 0.99])


def test_fit_singular_step_is_a_convergence_error():
    # at 1e-300 the normal equations underflow to zero
    powers = np.linspace(0.0, 250.0, 26)
    etas = 1e-300 * efficiency_model(powers, EfficiencyCurveParams(1.0, 0.013))
    with pytest.raises(ConvergenceError):
        fit_efficiency(powers, etas)


# the criterion-10 grids (clean and noisy) and the benchmark's fit grid
FIT_GRIDS = (np.linspace(0.0, 250.0, 26), np.linspace(5.0, 250.0, 25),
             np.array([5.0 + i * (245.0 / 24) for i in range(25)]))


def curve_fit_reference(powers, etas):
    """scipy's bounded curve_fit from the same start: (eta_max, eta_nor), residual norm.

    Its default tolerances (1e-8) stop up to 7e-7 relative short of the
    optimum on curves that stay below saturation, where eta_max and eta_nor
    are nearly degenerate; at 1e-15 it agrees with fit_efficiency to ~3e-8.
    """
    from scipy.optimize import curve_fit

    def curve(x, eta_max, eta_nor):
        return eta_max * np.sin(np.sqrt(eta_nor * x)) ** 2

    eta_max0 = min(max(float(np.max(etas)), 1e-3), 1.0)
    p_at_max = float(powers[int(np.argmax(etas))])
    eta_nor0 = (np.pi / 2.0) ** 2 / p_at_max if p_at_max > 0 else 1.0 / float(np.max(powers))
    popt, _ = curve_fit(curve, powers, etas, p0=(eta_max0, eta_nor0),
                        bounds=([0.0, 0.0], [1.0, np.inf]), maxfev=10000,
                        ftol=1e-15, xtol=1e-15, gtol=1e-15)
    return popt, float(np.linalg.norm(curve(powers, *popt) - etas))


@settings(max_examples=300, deadline=None)
@given(eta_max=st.floats(0.05, 1.0), eta_nor=st.floats(0.005, 0.03),
       grid=st.sampled_from(range(len(FIT_GRIDS))), seed=st.integers(0, 2**32 - 1))
def test_fit_equals_curve_fit(eta_max, eta_nor, grid, seed):
    powers = FIT_GRIDS[grid]
    clean = efficiency_model(powers, EfficiencyCurveParams(eta_max, eta_nor))
    noise = np.random.default_rng(seed).standard_normal(powers.size)
    etas = np.clip(clean * (1.0 + 0.02 * noise), 0.0, None)
    fit = fit_efficiency(powers, etas)
    (ref_max, ref_nor), ref_residual = curve_fit_reference(powers, etas)
    assert fit.params.eta_max == pytest.approx(ref_max, rel=1e-6)
    assert fit.params.eta_nor_per_mw == pytest.approx(ref_nor, rel=1e-6)
    assert fit.residual_norm <= ref_residual + 1e-12
    assert {type(v) for v in (fit.params.eta_max, fit.params.eta_nor_per_mw,
                              fit.residual_norm)} == {float}


def test_pump_balance_symmetric_split():
    params = EfficiencyCurveParams(0.44, 0.013)
    split = pump_balance(params, params, 200.0)
    assert split.p_ccw_mw == pytest.approx(100.0, abs=1e-6)
    assert split.equalized


def test_pump_balance_asymmetric_matches_grid_oracle():
    ccw = EfficiencyCurveParams(0.44, 0.013)
    cw = EfficiencyCurveParams(0.40, 0.018)
    total = 250.0
    split = pump_balance(ccw, cw, total)
    assert split.equalized
    assert split.p_ccw_mw + split.p_cw_mw == pytest.approx(total, abs=1e-9)
    assert split.eta_ccw == pytest.approx(split.eta_cw, abs=1e-9)
    # dense grid oracle
    grid = np.linspace(0.0, total, 200001)
    gaps = np.abs(efficiency_model(grid, ccw) - efficiency_model(total - grid, cw))
    best = grid[int(np.argmin(gaps))]
    assert split.p_ccw_mw == pytest.approx(best, abs=total / 200000 * 2)


def test_pump_balance_past_saturation_picks_best_root():
    # at 1000 mW both arms run past the sin^2 maximum and the gap has
    # several roots; the split must be the one that converts best
    ccw = EfficiencyCurveParams(0.5, 0.01)
    cw = EfficiencyCurveParams(0.3, 0.012)
    total = 1000.0
    split = pump_balance(ccw, cw, total)
    assert split.equalized
    assert split.p_ccw_mw + split.p_cw_mw == pytest.approx(total, abs=1e-9)
    # dense grid oracle: the equalizing split with the highest efficiency
    grid = np.linspace(0.0, total, 200001)
    eta_ccw = efficiency_model(grid, ccw)
    gap = eta_ccw - efficiency_model(total - grid, cw)
    roots = np.nonzero(np.sign(gap[:-1]) != np.sign(gap[1:]))[0]
    assert roots.size > 1
    best = roots[int(np.argmax(eta_ccw[roots]))]
    assert split.p_ccw_mw == pytest.approx(grid[best], abs=total / 200000 * 2)
    assert split.eta_ccw == pytest.approx(eta_ccw[best], abs=1e-4)
    assert split.eta_ccw > 0.2


def pump_balance_full_bisection(params_ccw, params_cw, total_power_mw, tolerance=1e-9):
    """pump_balance as it bisects every bracket all _BALANCE_BISECTIONS times; a grid
    point where the gap is exactly 0 is a root too, as pump_balance's docstring says."""
    def gap(ratio):
        return (efficiency_model(ratio * total_power_mw, params_ccw)
                - efficiency_model((1.0 - ratio) * total_power_mw, params_cw))

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
    roots = np.concatenate((0.5 * (lo + hi), grid[gap(grid) == 0.0]))
    ratio = float(roots[np.argmax(efficiency_model(roots * total_power_mw, params_ccw))])
    p_ccw = ratio * total_power_mw
    p_cw = total_power_mw - p_ccw
    eta_ccw = efficiency_model(p_ccw, params_ccw)
    eta_cw = efficiency_model(p_cw, params_cw)
    return PumpSplit(p_ccw, p_cw, eta_ccw, eta_cw, abs(eta_ccw - eta_cw) <= tolerance)


_CURVE = st.builds(EfficiencyCurveParams, st.floats(0.05, 1.0), st.floats(0.002, 0.05))


@settings(max_examples=300, deadline=None)
@given(ccw=_CURVE, cw=_CURVE,
       total=st.floats(1e-3, 100.0) | st.floats(100.0, 5000.0))
# equal arms past saturation: the gap is exactly 0 at the grid point of ratio 0.5,
# which is the best root (917.5215 mW on each arm, eta = 1 - 3.6e-14)
@example(ccw=EfficiencyCurveParams(1.0, 0.024202824752949888),
         cw=EfficiencyCurveParams(1.0, 0.024202824752949888), total=1835.04296875)
def test_pump_balance_equals_full_bisection(ccw, cw, total):
    # totals below 100 mW keep both arms below saturation for eta_nor <= 0.024;
    # above it the gap has several roots
    assert pump_balance(ccw, cw, total) == pump_balance_full_bisection(ccw, cw, total)


def test_pump_balance_ratio_grid_is_bounded():
    # 256 steps per monotone piece of sin^2, at most 1,000,000 steps as every grid
    ccw, cw = EfficiencyCurveParams(0.44, 1.0), EfficiencyCurveParams(0.40, 0.9)
    inside = (3905.5 * math.pi / 2.0) ** 2  # 999,936 steps
    assert pump_balance(ccw, cw, inside) == pump_balance_full_bisection(ccw, cw, inside)
    past = (3906.5 * math.pi / 2.0) ** 2  # 1,000,192 steps
    with pytest.raises(DomainError, match="^pump_balance ratio grid: grid of 1000192 "
                                          "steps of 0.00390625 sin\\^2 pieces over 3907 "):
        pump_balance(ccw, cw, past)
    # eta_nor * P overflows, so the count of pieces is infinite
    huge_ccw, huge_cw = EfficiencyCurveParams(0.44, 1e200), EfficiencyCurveParams(0.40, 1e200)
    with pytest.raises(DomainError, match="^pump_balance ratio grid: "):
        pump_balance(huge_ccw, huge_cw, 1e200)
    with pytest.raises(DomainError, match="^pump_balance ratio grid: "):  # no warning first
        pump_balance(EfficiencyCurveParams(0.44, np.float64(1e200)), huge_cw, np.float64(1e200))
    with pytest.raises(DomainError, match="^pump_balance ratio grid: grid of 162974720 "):
        pump_balance(EfficiencyCurveParams(0.44, 1e3), EfficiencyCurveParams(0.40, 1e3), 1e9)


def test_curve_params_reject_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for args in ((bad, 0.013), (0.44, bad)):
            with pytest.raises(DomainError):
                EfficiencyCurveParams(*args)


def test_pump_balance_underflowing_total():
    # both efficiencies underflow to 0 on every grid point: the gap is 0
    # everywhere and never changes sign
    ccw, cw = EfficiencyCurveParams(0.44, 0.013), EfficiencyCurveParams(0.40, 0.018)
    for total in (5e-324, 1e-323):
        split = pump_balance(ccw, cw, total)
        assert split.equalized
        assert split.p_ccw_mw + split.p_cw_mw == total
        assert split.eta_ccw == split.eta_cw == 0.0


def test_pump_balance_rejects_bad_total():
    params = EfficiencyCurveParams(0.44, 0.013)
    for total in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            pump_balance(params, params, total)


def test_pump_balance_zero_total():
    split = pump_balance(EfficiencyCurveParams(0.44, 0.013),
                         EfficiencyCurveParams(0.40, 0.018), 0.0)
    assert split == pump_balance(EfficiencyCurveParams(0.44, 0.013),
                                 EfficiencyCurveParams(0.40, 0.018), 0.0)
    assert (split.p_ccw_mw, split.p_cw_mw, split.eta_ccw, split.eta_cw) == \
        (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Bit identity: fit_efficiency and the tomography chain against references in
# whole-array numpy form (np.isfinite, np.ptp and np.argmax checks, `@` dots, one
# PolarizationState built and checked from each output array). Each float is
# compared with ==, each array by its bytes.

def apply_channel_reference(state, model):
    (hh, hv), (vh, vv) = state.matrix.tolist()
    raw_hh, raw_vv = model.eta_cw * vv, model.eta_ccw * hh
    probability = raw_hh.real + raw_vv.real
    if probability < 1e-15:
        raise DegenerateError(
            "channel output has vanishing success probability for this input")
    mix = model.depolarizing_mix
    keep, even = (1.0 - mix) / probability, 0.5 * mix
    c = keep * cmath.rect(math.sqrt(model.eta_cw * model.eta_ccw), model.phase_rad)
    out = np.array([[keep * raw_hh + even, c.conjugate() * vh],
                    [c * hv, keep * raw_vv + even]], dtype=complex)
    return PolarizationState(out), probability


def simulate_tomography_reference(model):
    return {label: apply_channel_reference(PolarizationState.from_label(label), model)
            for label in TOMOGRAPHY_INPUTS}


def reconstruct_chi_reference(inputs, outputs):
    if set(inputs) != set(outputs):
        raise DomainError("inputs and outputs must carry the same labels")
    labels = sorted(inputs)
    if len(labels) != 4:
        raise DomainError("tomography needs exactly four input states")
    v_in_inverse = _frame_inverse(b"".join(inputs[l].matrix.tobytes() for l in labels))
    # V_out: the row-major outputs as columns, like the inputs in V_in, in C order
    stacked = np.array([outputs[l][1] * outputs[l][0].matrix for l in labels])
    superop = stacked.reshape(4, 4).T.copy() @ v_in_inverse

    chi = (_PAULI_TRANSFER @ superop.reshape(16)).reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)

    eigvals, eigvecs = np.linalg.eigh(chi)
    snapped = np.where((eigvals < 0) & (eigvals >= -_CLIP_TOL), 0.0, eigvals)
    chi = (eigvecs * snapped) @ eigvecs.conj().T
    return ProcessMatrix(chi)


def process_fidelity_reference(process):
    trace = float(np.trace(process.chi).real)
    if trace <= 1e-15:
        raise DegenerateError("process matrix has (near-)zero trace")
    return float(process.chi[1, 1].real / trace)


def _projected_fit_reference(p, e, eta_nor):
    s = _saturation(p, 1.0, eta_nor)
    norm = float(s @ s)
    eta_max = min(max(float(s @ e) / norm, 0.0), 1.0) if norm > 0.0 else 0.0
    r = eta_max * s - e
    return s, norm, eta_max, r, float(r @ r)


def fit_efficiency_reference(power_mw, eta):
    p = np.asarray(power_mw, dtype=float)
    e = np.asarray(eta, dtype=float)
    if p.size != e.size or p.size < 3:
        raise DegenerateError("need at least 3 matching (P, eta) points")
    if not (np.isfinite(p).all() and np.isfinite(e).all()):
        raise DomainError("power and efficiency values must be finite")
    if (p < 0.0).any():
        raise DomainError("pump power must be non-negative")
    if np.ptp(p) <= 0:
        raise DegenerateError("power values must span a non-degenerate range")
    if np.max(np.abs(e)) == 0:
        raise DegenerateError("all efficiencies are zero; nothing to fit")

    p_at_max = float(p[int(np.argmax(e))])
    eta_nor = (np.pi / 2.0) ** 2 / p_at_max if p_at_max > 0 else 1.0 / float(np.max(p))
    s, a11, eta_max, r, cost = _projected_fit_reference(p, e, eta_nor)
    if eta_max == 0.0:
        raise DegenerateError("efficiencies do not follow the saturation curve: the best "
                              "eta_max at the peak's eta_nor is 0; nothing to fit")
    damping = _FIT_DAMPING
    for _ in range(_FIT_MAX_STEPS):
        # normal equations J^T J, J^T r of J = (s, eta_max * ds/deta_nor)
        x = np.sqrt(eta_nor * p)
        ds = np.sin(2.0 * x) * x / (2.0 * eta_nor)
        a12, a22 = eta_max * float(s @ ds), eta_max ** 2 * float(ds @ ds)
        g1, g2 = float(s @ r), eta_max * float(ds @ r)
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
            trial_fit = _projected_fit_reference(p, e, trial) if trial > 0.0 else None
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


def outcome(call, *args):
    """What a call gives, comparable with ==: its value, or its error's type and text."""
    try:
        return call(*args)
    except (DomainError, DegenerateError, ConvergenceError) as exc:
        return type(exc), str(exc)


def tomography_bits(simulate, reconstruct, fidelity, model):
    """The tomography of a model as bytes and floats: outputs, chi and fidelity."""
    outputs = simulate(model)
    inputs = {label: PolarizationState.from_label(label) for label in outputs}
    chi = reconstruct(inputs, outputs)
    return ([(label, state.matrix.tobytes(), probability)
             for label, (state, probability) in outputs.items()],
            chi.chi.tobytes(), fidelity(chi))


def fit_bits(fit):
    if isinstance(fit, tuple):  # an error
        return fit
    return fit.params.eta_max, fit.params.eta_nor_per_mw, fit.residual_norm


def assert_tomography_as_reference(model):
    assert tomography_bits(simulate_tomography, reconstruct_chi, process_fidelity, model) \
        == tomography_bits(simulate_tomography_reference, reconstruct_chi_reference,
                           process_fidelity_reference, model)


def assert_fit_as_reference(powers, etas):
    assert fit_bits(outcome(fit_efficiency, powers, etas)) \
        == fit_bits(outcome(fit_efficiency_reference, powers, etas))


@settings(max_examples=600, deadline=None)
@given(eta_cw=st.floats(0.01, 1.0), eta_ccw=st.floats(0.01, 1.0),
       phase=st.floats(-10.0, 10.0), mix=st.just(0.0) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), state_mix=st.just(0.0) | st.floats(0.0, 1.0))
def test_tomography_chain_equals_reference_bitwise(eta_cw, eta_ccw, phase, mix, seed,
                                                   state_mix):
    model = QfcChannelModel(eta_cw, eta_ccw, phase, mix)
    assert_tomography_as_reference(model)
    # apply_channel on any state, pure or mixed, not only the tomography inputs
    pure = random_state(np.random.default_rng(seed)).matrix
    state = PolarizationState((1.0 - state_mix) * pure + 0.5 * state_mix * np.eye(2))
    out, probability = apply_channel(state, model)
    expected, expected_probability = apply_channel_reference(state, model)
    assert out.matrix.tobytes() == expected.matrix.tobytes()
    assert probability == expected_probability


@settings(max_examples=600, deadline=None)
@given(eta_max=st.floats(0.05, 1.0), eta_nor=st.floats(0.002, 0.05),
       grid=st.sampled_from(range(len(FIT_GRIDS))), seed=st.integers(0, 2**32 - 1),
       data=st.sampled_from(("noisy", "off-curve")))
def test_fit_equals_reference_bitwise(eta_max, eta_nor, grid, seed, data):
    powers = FIT_GRIDS[grid]
    rng = np.random.default_rng(seed)
    if data == "noisy":
        clean = efficiency_model(powers, EfficiencyCurveParams(eta_max, eta_nor))
        etas = np.clip(clean * (1.0 + 0.02 * rng.standard_normal(powers.size)), 0.0, None)
    else:  # data far from any saturation curve, at any scale
        etas = rng.uniform(0.0, 2.0 * eta_max, powers.size)
        powers = np.sort(rng.uniform(0.0, float(rng.choice([1.0, 1e2, 1e4])), powers.size))
    assert_fit_as_reference(powers, etas)
    assert_fit_as_reference(powers.tolist(), etas.tolist())


def channel_design_ops(seed):
    """The op list of the benchmark's channel-design workload for a seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_ops("channel-design", seed)


def test_channel_design_seed1_equals_reference_bitwise():
    ops = channel_design_ops(1)
    kinds = [op["kind"] for op in ops]
    assert kinds.count("tomography") == kinds.count("fit") == 120
    for op in ops:
        if op["kind"] == "tomography":
            assert_tomography_as_reference(
                QfcChannelModel(op["eta_cw"], op["eta_ccw"], op["phase"], op["mix"]))
        elif op["kind"] == "fit":
            assert_fit_as_reference(op["curve"]["powers"], op["curve"]["etas"])
