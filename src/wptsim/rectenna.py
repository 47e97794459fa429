"""Rectenna models: waveform in, dc power out, plus the measurement path.

Two interchangeable nonlinearities map the received multi-sine to dc power:

* DiodeMomentModel - truncated diode small-signal expansion.  The dc proxy
  is z = k2*m2 + k4*m4 built from the waveform's second and fourth moments,
  and P_DC = alpha * z^2.  The fourth-order term is what rewards high-PAPR
  multi-sine waveforms.  The default coefficients are placeholders, not
  measurements; any strictly increasing recalibration of the map leaves
  every codeword selection unchanged.

* EfficiencyTableModel - user-supplied RF-to-dc efficiency sampled on a
  rectangular (input power dBm, PAPR) grid, interpolated bilinearly, for
  plugging in measured curves.

measure_dc models the receiver's ADC: dc power -> voltage across a load,
additive Gaussian noise, uniform quantization against a reference voltage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .waveform import (EffectiveTones, ToneGrid, papr, received_rf_power,
                       waveform_moments)


@dataclass(frozen=True)
class DiodeMomentModel:
    """dc power = alpha * (k2*m2 + k4*m4)^2.

    Defaults are placeholder diode-expansion coefficients (configurable,
    not measured values).
    """

    k2: float = 0.17
    k4: float = 19.1
    alpha: float = 1.0

    def __post_init__(self):
        if not self.k2 > 0:
            raise DomainError(f"k2 must be > 0, got {self.k2}")
        if self.k4 < 0:
            raise DomainError(f"k4 must be >= 0, got {self.k4}")
        if not self.alpha > 0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")

    def proxy(self, m2, m4):
        """z = k2*m2 + k4*m4 elementwise; linear, so it maps derivatives too."""
        return self.k2 * m2 + self.k4 * m4

    def dc(self, m2, m4):
        """dc power alpha * z^2 of moments (m2, m4), elementwise."""
        z = self.proxy(m2, m4)
        return self.alpha * z * z


@dataclass(frozen=True)
class EfficiencyTableModel:
    """RF-to-dc efficiency on a rectangular (power dBm, PAPR) grid.

    Attributes:
        p_dbm: strictly increasing input power axis, dBm.
        papr_axis: strictly increasing PAPR axis.
        eta: efficiency values in [0, 1], shape (len(p_dbm), len(papr_axis)).
    """

    p_dbm: np.ndarray = field(repr=False)
    papr_axis: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.p_dbm, dtype=float)
        q = np.asarray(self.papr_axis, dtype=float)
        e = np.asarray(self.eta, dtype=float)
        if p.ndim != 1 or q.ndim != 1 or p.size < 2 or q.size < 2:
            raise ConfigError("efficiency table needs at least a 2x2 grid")
        if np.any(np.diff(p) <= 0) or np.any(np.diff(q) <= 0):
            raise ConfigError("table axes must be strictly increasing")
        if e.shape != (p.size, q.size):
            raise ConfigError(
                f"eta shape {e.shape} != ({p.size}, {q.size})")
        if np.any(e < 0) or np.any(e > 1) or not np.all(np.isfinite(e)):
            raise ConfigError("efficiencies must lie in [0, 1]")
        for arr in (p, q, e):
            arr.flags.writeable = False
        object.__setattr__(self, "p_dbm", p)
        object.__setattr__(self, "papr_axis", q)
        object.__setattr__(self, "eta", e)

    @classmethod
    def from_rows(cls, rows) -> "EfficiencyTableModel":
        """Build from (p_dbm, papr, eta) triples covering a full grid.

        Duplicate grid points are rejected.  A table sampled at a single
        PAPR value is accepted and duplicated onto a second PAPR level so
        interpolation degenerates to power-only lookup.
        """
        seen = {}
        for p_val, q_val, e_val in rows:
            key = (float(p_val), float(q_val))
            if key in seen:
                raise ConfigError(f"duplicate table point {key}")
            seen[key] = float(e_val)
        if not seen:
            raise ConfigError("empty efficiency table")
        p_axis = np.array(sorted({k[0] for k in seen}))
        q_axis = np.array(sorted({k[1] for k in seen}))
        if q_axis.size == 1:
            q0 = q_axis[0]
            for p_val in p_axis:
                seen[(p_val, q0 + 1.0)] = seen[(p_val, q0)]
            q_axis = np.array([q0, q0 + 1.0])
        if len(seen) != p_axis.size * q_axis.size:
            raise ConfigError(
                f"table is not rectangular: {len(seen)} points for a "
                f"{p_axis.size}x{q_axis.size} grid")
        eta = np.empty((p_axis.size, q_axis.size))
        for i, p_val in enumerate(p_axis):
            for j, q_val in enumerate(q_axis):
                if (p_val, q_val) not in seen:
                    raise ConfigError(f"missing table point ({p_val}, {q_val})")
                eta[i, j] = seen[(p_val, q_val)]
        return cls(p_dbm=p_axis, papr_axis=q_axis, eta=eta)

    @classmethod
    def from_csv(cls, path) -> "EfficiencyTableModel":
        """Parse a 'p_dbm,papr,eta' file (strict header, one triple per line)."""
        rows = []
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != "p_dbm,papr,eta":
                raise ConfigError(
                    f"{path}:1: expected header 'p_dbm,papr,eta', got {header!r}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                parts = line.strip().split(",")
                if len(parts) != 3:
                    raise ConfigError(f"{path}:{lineno}: expected 3 fields")
                try:
                    rows.append(tuple(float(x) for x in parts))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        return cls.from_rows(rows)


@dataclass(frozen=True)
class AdcConfig:
    """Measurement path: load resistance, additive noise, uniform quantizer."""

    resolution_bits: int = 12
    v_ref: float = 3.3
    noise_sigma: float = 0.0
    load_resistance: float = 5000.0

    def __post_init__(self):
        if not 1 <= self.resolution_bits <= 24:
            raise DomainError(
                f"resolution_bits must be in [1, 24], got {self.resolution_bits}")
        if not self.v_ref > 0:
            raise DomainError("v_ref must be > 0")
        if not self.load_resistance > 0:
            raise DomainError("load_resistance must be > 0")
        if self.noise_sigma < 0:
            raise DomainError("noise_sigma must be >= 0")


def dc_power_moment(model: DiodeMomentModel, tones: EffectiveTones,
                    grid: ToneGrid) -> float:
    """dc output of the moment nonlinearity, alpha*(k2*m2 + k4*m4)^2 watts."""
    return model.dc(*waveform_moments(tones, grid))


@dataclass
class TableDiagnostics:
    """Set by dc_power_table when a query falls outside the table.

    The campaign passes none.  It stays public for callers that count
    clamped queries: the benchmark's tracer (``perfbench/spans.py``)
    hands one to every table call to report ``rectenna.table_clamps``.
    """

    clamped_power: bool = False
    clamped_papr: bool = False

    @property
    def clamped(self) -> bool:
        return self.clamped_power or self.clamped_papr


def _interp_axis(axis: np.ndarray, x: float) -> tuple[int, float, bool]:
    # clamped fractional position: (lower index, weight of upper node, clamped?)
    if x <= axis[0]:
        return 0, 0.0, bool(x < axis[0])
    if x >= axis[-1]:
        return axis.size - 2, 1.0, bool(x > axis[-1])
    i = int(np.searchsorted(axis, x, side="right") - 1)
    return i, (x - axis[i]) / (axis[i + 1] - axis[i]), False


def dc_power_table(model: EfficiencyTableModel, tones: EffectiveTones,
                   grid: ToneGrid, *,
                   diag: TableDiagnostics | None = None) -> float:
    """dc output via the efficiency table: P_RF * eta(P_RF dBm, PAPR).

    Queries outside the table clamp to its boundary; when a diag object is
    supplied the corresponding clamped flags are set.  A zero waveform
    yields 0.0 without consulting the table (its PAPR is undefined).
    """
    p_rf = received_rf_power(tones)
    if p_rf == 0.0:
        return 0.0
    ratio = papr(tones, grid)
    p_dbm = 10.0 * np.log10(p_rf / 1e-3)
    i, u, cp = _interp_axis(model.p_dbm, p_dbm)
    j, v, cq = _interp_axis(model.papr_axis, ratio)
    if diag is not None:
        diag.clamped_power = cp
        diag.clamped_papr = cq
    e = model.eta
    eta = ((1 - u) * (1 - v) * e[i, j] + u * (1 - v) * e[i + 1, j]
           + (1 - u) * v * e[i, j + 1] + u * v * e[i + 1, j + 1])
    return p_rf * float(eta)


def measure_dc(adc: AdcConfig, p_dc: float,
               rng: np.random.Generator | None = None) -> tuple[int, float]:
    """Quantized dc-voltage reading of a harvested power level.

    v = sqrt(p_dc * R_L), plus Gaussian noise when noise_sigma > 0, then
    uniform quantization: code = clamp(round(v/v_ref * (2^bits - 1))).
    Rounding is round-half-up, so v = v_ref/2 at 12 bits gives code 2048.

    Returns:
        (code, quantized voltage in volts).
    """
    if p_dc < 0:
        raise DomainError(f"p_dc must be >= 0, got {p_dc}")
    v = float(np.sqrt(p_dc * adc.load_resistance))
    if adc.noise_sigma > 0:
        if rng is None:
            raise DomainError("noise_sigma > 0 requires an rng")
        v += adc.noise_sigma * float(rng.standard_normal())
    full_scale = 2 ** adc.resolution_bits - 1
    code = int(np.floor(v / adc.v_ref * full_scale + 0.5))
    code = min(max(code, 0), full_scale)
    return code, code * adc.v_ref / full_scale
