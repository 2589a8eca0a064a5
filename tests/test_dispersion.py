import itertools
import json

import numpy as np
import pytest

from qfchub import (DomainError, SpectralPoint, ValidityError, get_material,
                    group_index, index_derivative, load_material_file,
                    refractive_index)
from qfchub.constants import C_NM_THZ


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


def test_index_functions_reject_n_squared_at_most_one(jundt):
    # jundt1997 extrapolated to 0.2 um has n^2 <= 1: all three fail the same way
    for f in (refractive_index, index_derivative, group_index):
        for lam in (0.2, np.array([0.2, 1.54])):
            with pytest.raises(DomainError, match=r"n\^2 <= 1"):
                f(jundt, lam, 48.0, allow_extrapolation=True)


def test_validity_error_names_bound(jundt):
    with pytest.raises(ValidityError, match=r"0\.400"):
        refractive_index(jundt, 0.35, 48.0)
    with pytest.raises(ValidityError, match="temperature"):
        refractive_index(jundt, 1.54, 300.0)
    # a wavelength outside the window is named first
    with pytest.raises(ValidityError, match=r"wavelength 0\.3500"):
        refractive_index(jundt, [1.54, 0.35], 300.0)


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
    for bad in (-1.0, 0.0):
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
