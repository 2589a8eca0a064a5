import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qfchub import (DomainError, EfficiencyCurveParams, SpectralPoint, ValidityError,
                    efficiency_model, get_material, group_index, index_derivative,
                    load_material_file, pm_efficiency, refractive_index)
from qfchub.constants import C_NM_THZ
from qfchub.dispersion import SellmeierModel, _dn2_dlam, _n_squared


def independent_index_1540_48c():
    """Direct transcription of the congruent-material n_e formula.

    Kept free of any package code so it can serve as an oracle for the
    packaged evaluation.
    """
    lam2 = 1.540 ** 2
    f = (48.0 - 24.5) * (48.0 + 570.82)
    n2 = (5.35583 + 4.629e-7 * f
          + (0.100473 + 3.862e-8 * f) / (lam2 - (0.20692 - 0.89e-8 * f) ** 2)
          + (100.0 + 2.657e-5 * f) / (lam2 - 11.34927 ** 2)
          - 1.5334e-2 * lam2)
    return n2 ** 0.5


def test_default_index_matches_independent_evaluation(jundt):
    assert refractive_index(jundt, 1.540, 48.0) == pytest.approx(
        independent_index_1540_48c(), rel=1e-6)


def test_index_monotone_examples(jundt):
    assert refractive_index(jundt, 0.780, 48.0) > refractive_index(jundt, 1.540, 48.0)
    n1 = refractive_index(jundt, 1.200, 48.0)
    n2 = refractive_index(jundt, 1.201, 48.0)
    assert n1 > n2


def test_index_monotonicity_property(materials, rng):
    for model in materials.values():
        lo, hi = model.wavelength_um
        t = 0.5 * (model.temperature_c[0] + model.temperature_c[1])
        pairs = rng.uniform(lo, hi, size=(1000, 2))
        lam1 = pairs.min(axis=1)
        lam2 = pairs.max(axis=1)
        keep = lam2 - lam1 > 1e-9
        n1 = refractive_index(model, lam1[keep], t)
        n2 = refractive_index(model, lam2[keep], t)
        assert np.all(n1 > n2), model.name


def test_index_finite_and_above_one(materials):
    for model in materials.values():
        lo, hi = model.wavelength_um
        lams = np.linspace(lo, hi, 200)
        t = 0.5 * sum(model.temperature_c)
        n = refractive_index(model, lams, t)
        assert np.all(np.isfinite(n)) and np.all(n > 1.0), model.name


def test_derivative_matches_finite_difference(materials, rng):
    step = 1e-4
    for model in materials.values():
        lo, hi = model.wavelength_um
        t = 0.5 * sum(model.temperature_c)
        lams = rng.uniform(lo + 2 * step, hi - 2 * step, size=100)
        analytic = index_derivative(model, lams, t)
        numeric = (refractive_index(model, lams + step, t)
                   - refractive_index(model, lams - step, t)) / (2 * step)
        assert np.allclose(analytic, numeric, rtol=1e-6), model.name


def test_derivative_negative_everywhere(jundt):
    lams = np.linspace(0.41, 4.99, 500)
    assert np.all(index_derivative(jundt, lams, 48.0) < 0)


def test_derivative_continuity(jundt):
    base = index_derivative(jundt, 1.540, 48.0)
    gaps = [abs(index_derivative(jundt, 1.540 + d, 48.0) - base)
            for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_group_index_exceeds_phase_index(jundt):
    lams = np.linspace(0.45, 4.5, 50)
    assert np.all(group_index(jundt, lams, 48.0) > refractive_index(jundt, lams, 48.0))


def test_group_index_identity(jundt):
    # n - lam*dn/dlam assembled term by term must match to 1e-12
    for lam in (0.78, 1.54, 1.5805263, 2.35):
        n = refractive_index(jundt, lam, 48.0)
        d = index_derivative(jundt, lam, 48.0)
        assert group_index(jundt, lam, 48.0) == pytest.approx(n - lam * d, abs=1e-12)


def test_index_functions_reject_n_squared_at_most_one(jundt, zelmon):
    # jundt1997 extrapolated to 0.2 um has n^2 <= 1: all three fail the same way;
    # points so far out, in wavelength or temperature, that the fit's terms would
    # overflow there (at 1e100 C, (a3 + b3*f)**2 raised OverflowError) fail with
    # an error of their own: zelmon1997's n at 1e100 um is 3.679, not n^2 <= 1
    cases = [(jundt, lam, 48.0, r"n\^2 <= 1") for lam in (0.2, np.array([0.2, 1.54]))]
    cases += [(model, lam, temperature, f"{model.name}: fit terms overflow")
              for model, lam, temperature in (
                  (jundt, 1e300, 48.0), (jundt, np.array([1.54, 1e300]), 48.0),
                  (jundt, 1.54, 1e100), (jundt, 1.54, 1e200), (jundt, 1.54, -1e100),
                  (zelmon, 1e100, 21.0))]
    for f in (refractive_index, index_derivative, group_index):
        for model, lam, temperature, message in cases:
            with pytest.raises(DomainError, match=message):
                f(model, lam, temperature, allow_extrapolation=True)


@pytest.mark.parametrize("lam, temperature", [
    (-0.78, 48.0), (0.0, 48.0), (np.nan, 48.0), (np.inf, 48.0), (1.54, np.nan), (1.54, np.inf)])
def test_index_functions_reject_impossible_inputs(jundt, lam, temperature):
    # extrapolation does not lift the rule, and it is checked before the window
    for f in (refractive_index, index_derivative, group_index):
        for x in (lam, np.array([1.54, lam])):
            for allow in (True, False):
                with pytest.raises(DomainError, match="must be finite"):
                    f(jundt, x, temperature, allow_extrapolation=allow)


@pytest.mark.parametrize("value", [1.54, np.float64(1.54), np.array(1.54)],
                         ids=["python-float", "numpy-scalar", "0-d-array"])
def test_kernels_return_a_float_for_any_scalar(jundt, value):
    # one scalar rule, np.ndim(x) == 0, for every kernel that takes a float or an array
    params = EfficiencyCurveParams(0.44, 0.013)
    for result in (refractive_index(jundt, value, 48.0), index_derivative(jundt, value, 48.0),
                   group_index(jundt, value, 48.0), pm_efficiency(value, 40.0),
                   efficiency_model(value, params)):
        assert type(result) is float
    assert type(refractive_index(jundt, np.array([value]), 48.0)) is np.ndarray


@settings(max_examples=200, deadline=None)
@given(lams=st.lists(st.floats(0.4, 5.0), min_size=1, max_size=16),
       temperature=st.floats(21.5, 250.0), extrapolate=st.booleans(),
       outside=st.lists(st.floats(0.25, 8.0), max_size=4),
       temperature_shift=st.floats(-200.0, 200.0))
# where a numpy scalar's ** 2, which is pow(), missed the correctly rounded square
@example(lams=[1.3244938800410964], temperature=21.5, extrapolate=False, outside=[],
         temperature_shift=0.0)
def test_array_kernels_equal_scalar_calls_bitwise(jundt, lams, temperature, extrapolate,
                                                  outside, temperature_shift):
    # an index table is evaluated as one column per kernel: each value must be the
    # bits of the scalar call, inside the fit and, extrapolating, beyond it
    if extrapolate:
        lams, temperature = lams + outside, temperature + temperature_shift
        assume(all(_n_squared(jundt, lam, temperature) > 1.0 for lam in lams))
    for f in (refractive_index, index_derivative, group_index):
        column = f(jundt, np.array(lams), temperature, allow_extrapolation=extrapolate)
        assert column.tolist() == [f(jundt, lam, temperature, allow_extrapolation=extrapolate)
                                   for lam in lams]


@settings(max_examples=200, deadline=None)
@given(mismatches=st.lists(st.floats(-3000.0, 3000.0), min_size=1, max_size=16),
       powers=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=16))
# where a float's ** 2, which is pow(), missed the correctly rounded square
@example(mismatches=[2010.6100215763208], powers=[0.0])
@example(mismatches=[0.0], powers=[154.03822729798077])
def test_squaring_kernels_equal_scalar_calls_bitwise(mismatches, powers):
    # the sinc^2 and saturation kernels square an array and a scalar alike
    params = EfficiencyCurveParams(0.44, 0.013)
    assert pm_efficiency(np.array(mismatches), 40.0).tolist() == [
        pm_efficiency(dk, 40.0) for dk in mismatches]
    assert efficiency_model(np.array(powers), params).tolist() == [
        efficiency_model(p, params) for p in powers]


def test_validity_error_names_bound(jundt):
    with pytest.raises(ValidityError, match=r"0\.400"):
        refractive_index(jundt, 0.35, 48.0)
    with pytest.raises(ValidityError, match="temperature"):
        refractive_index(jundt, 1.54, 300.0)
    # a wavelength outside the window is named first
    with pytest.raises(ValidityError, match=r"wavelength 0\.3500"):
        refractive_index(jundt, [1.54, 0.35], 300.0)
    # a value the fixed format would show as 0 is named by its repr
    with pytest.raises(ValidityError, match=r"^wavelength 1e-06 um outside"):
        refractive_index(jundt, 1e-06, 48.0)


def test_in_validity_is_elementwise(jundt):
    lams = np.array([0.35, 0.4, 1.54, 5.0, 5.2])
    assert jundt.in_validity(lams, 48.0).tolist() == [False, True, True, True, False]
    assert jundt.in_validity(1.54, np.array([21.5, 250.0, 260.0])).tolist() == [
        True, True, False]
    assert not jundt.in_validity(lams, 300.0).any()


def test_extrapolation_must_be_explicit(jundt):
    with pytest.raises(ValidityError):
        refractive_index(jundt, 5.2, 48.0)
    n = refractive_index(jundt, 5.2, 48.0, allow_extrapolation=True)
    assert 1.0 < n < 2.1


def test_alternative_models_agree(materials, rng):
    # bundled sets must agree below 5e-3 on shared validity windows
    for a, b in itertools.combinations(materials.values(), 2):
        w_lo = max(a.wavelength_um[0], b.wavelength_um[0])
        w_hi = min(a.wavelength_um[1], b.wavelength_um[1])
        t_lo = max(a.temperature_c[0], b.temperature_c[0])
        t_hi = min(a.temperature_c[1], b.temperature_c[1])
        assert w_lo < w_hi and t_lo <= t_hi, (a.name, b.name)
        lams = np.linspace(w_lo, w_hi, 120)
        for t in np.linspace(t_lo, t_hi, 5):
            diff = np.abs(refractive_index(a, lams, float(t))
                          - refractive_index(b, lams, float(t)))
            assert np.max(diff) < 5e-3, (a.name, b.name, float(t), np.max(diff))


def test_convert_examples():
    point = SpectralPoint.from_frequency_thz(194.850)
    # printed grid wavelength agrees to 4 significant figures
    assert point.wavelength_nm == pytest.approx(1538.66, abs=0.5)
    assert SpectralPoint.from_wavelength_nm(780.0).frequency_thz == \
        pytest.approx(C_NM_THZ / 780.0, rel=1e-12)
    assert SpectralPoint.from_wavelength_nm(780.0).frequency_thz == \
        pytest.approx(384.349, abs=5e-4)


def test_convert_round_trip():
    for nm in (493.0, 780.0, 1310.0, 1540.0, 1580.5263157894738):
        nu = SpectralPoint.from_wavelength_nm(nm).frequency_thz
        back = SpectralPoint.from_frequency_thz(nu).wavelength_nm
        assert back == pytest.approx(nm, rel=1e-12)


def test_spectral_point_invariant():
    for nm in np.linspace(401.0, 4999.0, 37):
        p = SpectralPoint.from_wavelength_nm(float(nm))
        assert p.wavelength_um * p.frequency_thz == pytest.approx(
            C_NM_THZ / 1000.0, rel=1e-12)


def test_convert_domain_errors():
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        for build in (SpectralPoint.from_wavelength_nm, SpectralPoint.from_frequency_thz):
            with pytest.raises(DomainError):
                build(bad)


def test_material_lookup_and_user_file(tmp_path):
    with pytest.raises(DomainError, match="unknown material"):
        get_material("nope")
    payload = {"materials": [{
        "name": "custom",
        "form": "lambda_sq_poles",
        "coefficients": [2.9804, 0.02047, 0.5981, 0.0666, 8.9543, 416.08],
        "wavelength_um": [0.4, 5.0],
        "temperature_c": [19.0, 25.0],
    }]}
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(payload))
    table = load_material_file(path)
    assert refractive_index(table["custom"], 1.54, 21.0) > 2.0
    assert get_material("custom", extra_file=path).name == "custom"


# sha256 of the kernels' float64 bytes on np.linspace(0.2, 6.0, 200001), recorded
# before both forms became one pole list: a change that keeps every floating-point
# operation and its order keeps these bytes.
PINNED_KERNELS = {
    ("jundt1997", 22.0): (
        "e66a488ab2fed9afae3e28677276ee2e3a39ebb3099b756fe90c6bcdc60528b7",
        "a36b0c55c4428f400c353f3e8675afb1b45f01199e03ac9868f2415e15fa10eb"),
    ("jundt1997", 48.0): (
        "80f04f070c0bca240c7067bc243a78dd83479c2b26afb398bf7d9b3c4db80051",
        "908e37c8cd9b1dcb890548b0b0b22761b60ea9a0e563d6ace48efebc0f00e440"),
    ("jundt1997", 200.0): (
        "d97b5f0a9efcf55fa4c49a120645df706378587e5e73417e9867311310b53637",
        "927cc53c1aeaf97bb3bb57be3f2cad13536d9497af9f33b5cd94757cafaaaf7b"),
    ("edwards_lawrence1984", 22.0): (
        "6cbd98f6bfd4d3d948f93b48eca2bc168cfa539cf1f468ba4e69f88692e8a24f",
        "11708ff094ca9c181dd685c2c5b92a6c488eab85c32a377cb0095a29647497f4"),
    ("edwards_lawrence1984", 48.0): (
        "d755865f53b5374ff71953d977ecac02c7c455546dd81718ab5a2eaa92f33d31",
        "bbf814c3d3683739b2862ac3c003e7a765e5872f861846f442f0f0ee1685a14c"),
    ("edwards_lawrence1984", 200.0): (
        "122677bd0d0c5fa4f4660971adf6168d3c654835829b79fd3ac807cc9f30eae3",
        "c68c35481efd52ac4d212f4c0f393b33b511c490dac4c4cef91a6904dc43a519"),
}


@pytest.mark.parametrize("name, temperature", sorted(PINNED_KERNELS))
def test_dispersion_kernels_match_pinned_digests(name, temperature, materials):
    lam = np.linspace(0.2, 6.0, 200001)
    with np.errstate(all="ignore"):
        got = tuple(hashlib.sha256(kernel(materials[name], lam, temperature).tobytes())
                    .hexdigest() for kernel in (_n_squared, _dn2_dlam))
    assert got == PINNED_KERNELS[name, temperature]


def _per_form_n2_dn2(model, lam, t):
    """n^2 and dn^2/dlambda as each form was written out before the pole list."""
    lam2 = lam ** 2
    if model.form == "thermal_poles":
        a1, a2, a3, a4, a5, a6 = model.coefficients
        b1, b2, b3, b4 = model.thermal_coefficients
        t0, t1 = model.thermal_reference
        f = (t - t0) * (t + t1)
        return (a1 + b1 * f
                + (a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2)
                + (a4 + b4 * f) / (lam2 - a5 ** 2)
                - a6 * lam2,
                -2.0 * lam * ((a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2) ** 2
                              + (a4 + b4 * f) / (lam2 - a5 ** 2) ** 2
                              + a6))
    c = model.coefficients
    n2, d = np.ones_like(lam2), np.zeros_like(lam)
    for b_i, c_i in zip(c[0::2], c[1::2]):
        n2 = n2 + b_i * lam2 / (lam2 - c_i)
        d = d - 2.0 * lam * b_i * c_i / (lam2 - c_i) ** 2
    return n2, d


def _model(form, coefficients, thermal=(), reference=()):
    return SellmeierModel("drawn", form, tuple(coefficients), tuple(thermal),
                          tuple(reference), "", (0.4, 5.0), (20.0, 30.0))


def _off_poles(lams, poles):
    """The drawn wavelengths whose L^2 lies at least 0.01 um^2 from every pole."""
    lam = np.array(lams)
    lam = lam[np.all(np.abs(lam[:, None] ** 2 - np.array(poles)) >= 0.01, axis=1)]
    assume(lam.size)
    return lam


_WAVELENGTHS = st.lists(st.floats(0.2, 6.0), min_size=1, max_size=16)


@settings(max_examples=300, deadline=None)
@given(a=st.lists(st.floats(-200.0, 200.0), min_size=6, max_size=6),
       b=st.lists(st.floats(-1e-4, 1e-4), min_size=4, max_size=4),
       reference=st.lists(st.floats(-600.0, 600.0), min_size=2, max_size=2),
       t=st.floats(-100.0, 400.0), lams=_WAVELENGTHS)
# pole strengths and a6 of -0.0: the bits include the sign of a zero derivative
@example(a=[2.0, -0.0, 0.2, -0.0, 11.0, -0.0], b=[0.0, -0.0, 0.0, -0.0],
         reference=[0.0, 0.0], t=10.0, lams=[1.54])
def test_thermal_pole_list_is_bitwise_the_written_form(a, b, reference, t, lams):
    model = _model("thermal_poles", a, b, reference)
    f = (t - reference[0]) * (t + reference[1])
    lam = _off_poles(lams, [(a[2] + b[2] * f) ** 2, a[4] ** 2])
    n2, d = _per_form_n2_dn2(model, lam, t)
    assert _n_squared(model, lam, t).tobytes() == n2.tobytes()
    assert _dn2_dlam(model, lam, t).tobytes() == d.tobytes()


_B = st.floats(-10.0, 10.0).filter(lambda b: abs(b) >= 1e-4)
_C = st.one_of(st.just(0.0), st.floats(1e-6, 500.0))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_B, _C), min_size=1, max_size=4),
       t=st.floats(-100.0, 400.0), lams=_WAVELENGTHS)
def test_lambda_sq_pole_list_within_its_rounding(pairs, t, lams):
    # The rewrite b*L^2/(L^2 - c) = (1 + sum b) + sum b*c/(L^2 - c) changes only the
    # rounding. With L^2 shared and u = 2^-53, gamma(n) = n*u/(1 - n*u) bounds n
    # roundings (Higham, ch. 3). n^2: each term has 3 roundings (a product, L^2 - c,
    # the quotient) and passes through at most 2K additions, so each value lies
    # within gamma(2K + 3) of the sum of |terms| of its own expression. dn^2/dlambda:
    # both sum the same K terms |2*L*b*c/(L^2 - c)^2|, and each term meets at most
    # K + 5 roundings in either (the square doubles that of L^2 - c).
    k = len(pairs)
    model = _model("lambda_sq_poles", [x for pair in pairs for x in pair])
    lam = _off_poles(lams, [c for _, c in pairs])
    lam2 = lam ** 2
    n2, d = _per_form_n2_dn2(model, lam, t)

    def gamma(n):
        return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)

    old_terms = 1.0 + sum(abs(b * lam2 / (lam2 - c)) for b, c in pairs)
    new_terms = 1.0 + sum(abs(b) + abs(b * c / (lam2 - c)) for b, c in pairs)
    d_terms = sum(abs(2.0 * lam * b * c / (lam2 - c) ** 2) for b, c in pairs)
    assert np.all(np.abs(_n_squared(model, lam, t) - n2)
                  <= gamma(2 * k + 3) * (old_terms + new_terms))
    assert np.all(np.abs(_dn2_dlam(model, lam, t) - d) <= 2 * gamma(k + 5) * d_terms)
