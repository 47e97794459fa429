"""Rectifier output models and the measurement/quantization path."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import (AdcConfig, ConfigError, DimensionError, DiodeMomentModel,
                    DomainError, EfficiencyTableModel, EffectiveTones,
                    TableDiagnostics, ToneGrid, dc_power_moment,
                    dc_power_table, measure_dc, papr, received_rf_power,
                    stream, waveform_moments)
from wptsim.rectenna import _interp_axis


def _tones(amps) -> EffectiveTones:
    return EffectiveTones(amplitudes=np.asarray(amps, dtype=complex))


# ---------------------------------------------------------------------------
# moment model

def test_moment_model_unit_coefficients_single_tone():
    # |a| = sqrt(2): m2 = 1, m4 = 1.5, so (1 + 1.5)^2 = 6.25
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    model = DiodeMomentModel(k2=1.0, k4=1.0, alpha=1.0)
    assert dc_power_moment(model, _tones([np.sqrt(2.0)]), grid) == \
        pytest.approx(6.25, rel=1e-12)


def test_moment_model_default_coefficients():
    model = DiodeMomentModel()
    assert model.k2 == 0.17
    assert model.k4 == 19.1
    assert model.alpha == 1.0


def test_moment_model_matches_formula():
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    gen = stream(21, 0)
    a = gen.normal(size=3) + 1j * gen.normal(size=3)
    tones = _tones(a)
    model = DiodeMomentModel(k2=0.3, k4=2.0, alpha=0.8)
    m2, m4 = waveform_moments(tones, grid)
    expected = 0.8 * (0.3 * m2 + 2.0 * m4) ** 2
    assert dc_power_moment(model, tones, grid) == pytest.approx(expected,
                                                                rel=1e-12)


def test_moment_model_parameter_domain():
    with pytest.raises(DomainError):
        DiodeMomentModel(k2=0.0)
    with pytest.raises(DomainError):
        DiodeMomentModel(k2=-0.1)
    with pytest.raises(DomainError):
        DiodeMomentModel(k4=-1.0)
    with pytest.raises(DomainError):
        DiodeMomentModel(alpha=0.0)
    DiodeMomentModel(k4=0.0)   # linear-only rectifier is legal


@pytest.mark.parametrize("field", ["k2", "k4", "alpha"])
def test_moment_model_rejects_non_finite_coefficients(field):
    # nan fails every comparison and inf passes "> 0"; either would carry
    # into every dc power the model computes
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError,
                           match=f"{field} must be .* and finite"):
            DiodeMomentModel(**{field: value})
    DiodeMomentModel(**{field: 1e300})


@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40)
def test_moment_model_scaling_is_quartic_in_amplitude_for_k2_only(seed, c):
    # with k4 = 0, dc = alpha * k2^2 * m2^2 and m2 scales as c^2
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    gen = stream(seed, 1)
    a = gen.normal(size=4) + 1j * gen.normal(size=4)
    model = DiodeMomentModel(k2=0.5, k4=0.0)
    base = dc_power_moment(model, _tones(a), grid)
    scaled = dc_power_moment(model, _tones(c * a), grid)
    assert scaled == pytest.approx(c ** 4 * base, rel=1e-9)


# ---------------------------------------------------------------------------
# efficiency table

def _simple_table() -> EfficiencyTableModel:
    # eta rises with power and PAPR; the single-tone PAPR of 2 sits halfway
    # along the PAPR axis so no query lands on a node boundary
    return EfficiencyTableModel(
        p_dbm=np.array([-20.0, 0.0]),
        papr_axis=np.array([1.0, 3.0]),
        eta=np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_papr_rates_one_waveform_not_a_stack():
    # a stack of waveforms has one RF power per row; papr takes one at a
    # time, and the moment model all at once
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    stack = _tones(0.1 * np.ones((2, 2)))
    message = re.escape("amplitudes shape (2, 2) does not fit (2,)")
    with pytest.raises(DimensionError, match=message):
        papr(stack, grid)
    model = DiodeMomentModel()
    assert dc_power_moment(model, stack, grid).tolist() == \
        [dc_power_moment(model, _tones(row), grid) for row in stack.amplitudes]


def _scalar_axis(axis, x):
    # (lower index, weight of the upper node) of one query, branch by branch
    if x <= axis[0]:
        return 0, 0.0
    if x >= axis[-1]:
        return axis.size - 2, 1.0
    i = int(np.searchsorted(axis, x, side="right") - 1)
    return i, (x - axis[i]) / (axis[i + 1] - axis[i])


def _scalar_table(model, tones, grid):
    # one waveform rated as the table rectifier rates each row of a stack
    p_rf = received_rf_power(tones)
    if p_rf == 0.0:
        return 0.0
    i, u = _scalar_axis(model.p_dbm, 10.0 * np.log10(p_rf / 1e-3))
    j, v = _scalar_axis(model.papr_axis, papr(tones, grid))
    e = model.eta
    return p_rf * float((1 - u) * (1 - v) * e[i, j] + u * (1 - v) * e[i + 1, j]
                        + (1 - u) * v * e[i, j + 1] + u * v * e[i + 1, j + 1])


@pytest.mark.parametrize("n", [1, 2, 8])
def test_a_stacked_table_call_equals_its_rows(n):
    # a zero row and seven rows whose powers span 90 dB; each axis runs
    # from the second-lowest to the second-highest of the rows' values,
    # through the third-lowest, so rows lie below and above both axes,
    # exactly on both end nodes and on an inner node
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gen = stream(70 + n, 1)
    amps = (gen.standard_normal((7, n)) + 1j * gen.standard_normal((7, n))) \
        * np.sqrt(np.logspace(-9, 0, 7))[:, None]
    rows = [_tones(np.zeros(n))] + [_tones(a) for a in amps]
    p_dbm = sorted(float(10.0 * np.log10(received_rf_power(t) / 1e-3))
                   for t in rows[1:])
    ratios = sorted(papr(t, grid) for t in rows[1:])
    model = EfficiencyTableModel(
        p_dbm=np.array([p_dbm[1], p_dbm[2], p_dbm[5]]),
        papr_axis=np.array([ratios[1], ratios[2], ratios[5]]),
        eta=np.linspace(0.05, 0.8, 9).reshape(3, 3))
    for axis, values in ((model.p_dbm, p_dbm), (model.papr_axis, ratios)):
        i, w, clamped = _interp_axis(axis, np.array(values))
        expected = [_scalar_axis(axis, x) for x in values]
        assert i.tolist() == [e[0] for e in expected]
        assert w.tobytes() == np.array([e[1] for e in expected]).tobytes()
        assert clamped and not _interp_axis(axis, np.array(values[1:6]))[2]
    alone, flags = [], []
    for t in rows:
        diag = TableDiagnostics()
        alone.append(dc_power_table(model, t, grid, diag=diag))
        flags.append((diag.clamped_power, diag.clamped_papr))
        assert type(alone[-1]) is np.float64
        assert alone[-1] == _scalar_table(model, t, grid)
    assert flags[0] == (False, False)
    assert {f[0] for f in flags} == {f[1] for f in flags} == {False, True}
    stack = np.array([t.amplitudes for t in rows])
    for size in (1, 2, len(rows)):
        for picked in itertools.combinations(range(len(rows)), size):
            diag = TableDiagnostics(clamped_power=True, clamped_papr=True)
            got = dc_power_table(model, _tones(stack[list(picked)]), grid,
                                 diag=diag)
            assert got.shape == (size,)
            assert got.tobytes() == np.array(
                [alone[r] for r in picked]).tobytes()
            assert (diag.clamped_power, diag.clamped_papr) == tuple(
                any(flags[r][axis] for r in picked) for axis in (0, 1))
    assert dc_power_table(model, _tones(stack.reshape(2, 4, n)),
                          grid).tobytes() == np.array(alone).tobytes()


def test_table_validation():
    with pytest.raises(ConfigError):
        EfficiencyTableModel(p_dbm=np.array([0.0]),
                             papr_axis=np.array([1.0, 2.0]),
                             eta=np.array([[0.1, 0.2]]))
    with pytest.raises(ConfigError):
        EfficiencyTableModel(p_dbm=np.array([0.0, 0.0]),
                             papr_axis=np.array([1.0, 2.0]),
                             eta=np.full((2, 2), 0.1))
    with pytest.raises(ConfigError):
        EfficiencyTableModel(p_dbm=np.array([0.0, 1.0]),
                             papr_axis=np.array([1.0, 2.0]),
                             eta=np.full((2, 2), 1.5))
    with pytest.raises(ConfigError, match=r"eta shape \(2, 3\) != \(2, 2\)"):
        EfficiencyTableModel(p_dbm=np.array([0.0, 1.0]),
                             papr_axis=np.array([1.0, 2.0]),
                             eta=np.full((2, 3), 0.1))
    # an infinite power node would read every query above -30 dBm at -30 dBm
    for p_dbm, papr in [([-30.0, np.inf], [1.0, 2.0]),
                        ([-30.0, 0.0], [1.0, np.inf]),
                        ([-np.inf, 0.0], [1.0, 2.0])]:
        with pytest.raises(ConfigError, match="finite"):
            EfficiencyTableModel(p_dbm=np.array(p_dbm),
                                 papr_axis=np.array(papr),
                                 eta=np.full((2, 2), 0.1))


def test_from_rows_rejects_duplicates():
    rows = [(-20.0, 2.0, 0.1), (-20.0, 2.0, 0.2), (0.0, 2.0, 0.3),
            (-20.0, 4.0, 0.1), (0.0, 4.0, 0.4)]
    with pytest.raises(ConfigError):
        EfficiencyTableModel.from_rows(rows)


def test_from_rows_rejects_ragged_grid():
    rows = [(-20.0, 2.0, 0.1), (0.0, 2.0, 0.3), (0.0, 4.0, 0.4)]
    with pytest.raises(ConfigError):
        EfficiencyTableModel.from_rows(rows)


def test_from_rows_single_papr_degenerates_to_power_lookup():
    rows = [(-20.0, 2.0, 0.1), (0.0, 2.0, 0.3)]
    model = EfficiencyTableModel.from_rows(rows)
    assert model.papr_axis.size == 2
    assert np.array_equal(model.eta[:, 0], model.eta[:, 1])


def test_from_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("p_dbm,papr,eta\n-20,2,0.1\n-20,4,0.2\n0,2,0.3\n0,4,0.4\n")
    model = EfficiencyTableModel.from_csv(path)
    assert np.array_equal(model.eta, [[0.1, 0.2], [0.3, 0.4]])


def test_from_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("power,papr,eta\n-20,2,0.1\n")
    with pytest.raises(ConfigError):
        EfficiencyTableModel.from_csv(path)


def test_from_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("p_dbm,papr,eta\n-20,2,0.1\n\n-20,4,0.2\n  \n"
                    "0,2,0.3\n0,4,0.4\n\n")
    model = EfficiencyTableModel.from_csv(path)
    assert np.array_equal(model.eta, [[0.1, 0.2], [0.3, 0.4]])


@pytest.mark.parametrize("body,message", [
    ("", "empty efficiency table"),
    # the blank line 2 is skipped but counted
    ("\n-20,2,0.1\n-20,4\n", ":4: expected 3 fields"),
    ("-20,2,low\n", ":2: could not convert"),
], ids=["empty", "fields", "number"])
def test_from_csv_names_the_line_of_a_bad_table(tmp_path, body, message):
    path = tmp_path / "table.csv"
    path.write_text("p_dbm,papr,eta\n" + body)
    with pytest.raises(ConfigError, match=re.escape(
            message if body == "" else f"{path}{message}")):
        EfficiencyTableModel.from_csv(path)


def test_table_dc_power_interior_bilinear():
    # single tone at exactly -10 dBm: |a|^2/2 = 1e-4 W, PAPR = 2
    model = _simple_table()
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    amp = np.sqrt(2.0 * 1e-4)
    tones = _tones([amp])
    # u = 0.5 on the power axis, v = 0.5 on the PAPR axis
    expected_eta = 0.25 * (0.1 + 0.3 + 0.2 + 0.4)
    got = dc_power_table(model, tones, grid)
    assert got == pytest.approx(1e-4 * expected_eta, rel=1e-9)


def test_table_dc_power_clamps_and_reports():
    model = _simple_table()
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    diag = TableDiagnostics()
    strong = _tones([np.sqrt(2.0 * 10.0)])   # 40 dBm, above the power axis
    got = dc_power_table(model, strong, grid, diag=diag)
    assert diag.clamped_power and not diag.clamped_papr
    # top power row, halfway along the PAPR axis
    assert got == pytest.approx(10.0 * 0.5 * (0.3 + 0.4), rel=1e-9)


def test_table_dc_power_zero_waveform():
    model = _simple_table()
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    assert dc_power_table(model, _tones([0.0, 0.0]), grid) == 0.0


def test_table_diag_papr_clamp():
    model = _simple_table()
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    diag = TableDiagnostics()
    # four equal in-phase tones have PAPR 8, beyond the table's [2, 4] axis
    amp = np.sqrt(2.0 * 1e-4 / 4.0)
    dc_power_table(model, _tones(np.full(4, amp)), grid, diag=diag)
    assert diag.clamped_papr
    assert diag.clamped


# ---------------------------------------------------------------------------
# measurement path

def test_measure_dc_midscale_code():
    adc = AdcConfig()    # 12 bits, v_ref 3.3, R_L 5000
    p_mid = (3.3 / 2.0) ** 2 / 5000.0    # dc power putting v at v_ref/2
    code, v = measure_dc(adc, p_mid)
    assert code == 2048
    assert v == pytest.approx(2048 / 4095 * 3.3, rel=1e-12)


def test_measure_dc_zero_and_overrange():
    adc = AdcConfig()
    assert measure_dc(adc, 0.0) == (0, 0.0)
    code, v = measure_dc(adc, 1e9)
    assert code == 4095
    assert v == pytest.approx(3.3, rel=1e-12)


def test_measure_dc_round_half_up():
    adc = AdcConfig(resolution_bits=3, v_ref=7.0, load_resistance=1.0)
    # v = 3.5 -> 3.5/7*7 = 3.5 exactly halfway between codes 3 and 4
    code, _ = measure_dc(adc, 3.5 ** 2)
    assert code == 4


def test_measure_dc_monotone_in_power():
    adc = AdcConfig()
    codes = [measure_dc(adc, p)[0]
             for p in np.linspace(0.0, 3.3 ** 2 / 5000.0, 200)]
    assert all(b >= a for a, b in zip(codes, codes[1:]))


def test_measure_dc_rejects_negative_power():
    # nan and inf would otherwise fail in int() with a bare Python error
    for p_dc in (-1e-9, np.nan, np.inf):
        with pytest.raises(DomainError):
            measure_dc(AdcConfig(), p_dc)


def test_measure_dc_noise_requires_rng():
    adc = AdcConfig(noise_sigma=0.01)
    with pytest.raises(DomainError):
        measure_dc(adc, 1e-6)
    code, _ = measure_dc(adc, 1e-6, rng=stream(0, 50))
    assert 0 <= code <= 4095


def test_adc_config_validation():
    with pytest.raises(DomainError):
        AdcConfig(resolution_bits=0)
    with pytest.raises(DomainError):
        AdcConfig(resolution_bits=25)
    with pytest.raises(DomainError):
        AdcConfig(v_ref=0.0)
    with pytest.raises(DomainError):
        AdcConfig(noise_sigma=-0.1)
    with pytest.raises(DomainError):
        AdcConfig(load_resistance=0.0)


@pytest.mark.parametrize("field", ["v_ref", "noise_sigma",
                                   "load_resistance"])
def test_adc_config_rejects_non_finite_values(field):
    # nan noise would read as a noiseless ADC; an infinite load or noise
    # overflows in measure_dc, and an infinite v_ref reads code 0 as nan
    for value in (np.nan, np.inf):
        with pytest.raises(DomainError,
                           match=f"{field} must be .* and finite"):
            AdcConfig(**{field: value})
    assert measure_dc(AdcConfig(**{field: 1e6}), 1e-6,
                      rng=stream(0, 50))[0] >= 0
