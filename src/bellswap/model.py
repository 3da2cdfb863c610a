"""Finite deterministic local-hidden-variable models with inefficient detectors.

A model assigns to every hidden-variable value a tri-valued response for each
analysis angle: +1 or -1 for a detected polarization outcome, 0 when the
detector stays silent. The two outer stations respond through tables
``a`` and ``d``; the joint analyzer between them responds through one table
per announcement sector, with a sign map ``kappa`` choosing which sector a
hidden-variable pair belongs to. Weights are exact rationals so counts and
expectations never accumulate rounding error.

Families:

* ``two_source``: independent hidden variables on each side, tables indexed
  by (angle, lam1), (angle, lam4), (angle, angle, lam1, lam4); the joint
  weight is always the product of the two marginals.
* ``single_source``: one shared hidden variable feeds all three devices;
  tables drop the second hidden index and ``rho4`` is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ModelFormatError",
    "LhvModel",
    "event_count",
    "classical_expectation",
    "realized_sectors",
    "selected_analyzer",
    "product_tensor",
    "positive_weight_mask",
    "load",
    "loads",
    "save",
    "dumps",
]

TWO_SOURCE = "two_source"
SINGLE_SOURCE = "single_source"


class ModelFormatError(ValueError):
    """A model violates the file format or a structural invariant."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ModelFormatError(f"{path}: {message}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _sign_array(values, path: str, allow_zero: bool) -> np.ndarray:
    # a copy: the model owns its tables, so no caller alias can change them
    arr = np.array(values, dtype=np.int8)
    allowed = {-1, 0, 1} if allow_zero else {-1, 1}
    present = set(np.unique(arr).tolist()) if arr.size else set()
    _require(present <= allowed, path, f"values must lie in {sorted(allowed)}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _weights(values, path: str) -> tuple[Fraction, ...]:
    out = []
    for i, v in enumerate(values):
        try:
            w = Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"{path}[{i}]: not a rational number: {v!r}") from exc
        _require(w >= 0, f"{path}[{i}]", "weights must be nonnegative")
        out.append(w)
    _require(sum(out, Fraction(0)) == 1, path, "weights must sum to exactly 1")
    return tuple(out)


@dataclass(frozen=True)
class LhvModel:
    """Immutable deterministic model over the pi/n angle grid.

    Angle arguments throughout are step indices in [0, 2n). Tables are int8
    arrays with values in {-1, 0, +1}; ``kappa`` holds only signs. The model
    copies the tables it is given and makes them read-only, so the derived
    views below are computed once per model, on first use, and stay valid.
    """

    family: str
    n: int
    a: np.ndarray
    d: np.ndarray
    kappa: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    rho1: tuple[Fraction, ...]
    rho4: tuple[Fraction, ...] | None
    n0: int = 1

    def __post_init__(self) -> None:
        _require(self.family in (TWO_SOURCE, SINGLE_SOURCE), "family",
                 f"unknown family {self.family!r}")
        _require(_is_int(self.n) and self.n >= 1, "n",
                 "grid resolution must be a positive integer")
        _require(_is_int(self.n0) and self.n0 >= 0, "n0",
                 "nominal count must be a nonnegative integer")
        m = 2 * self.n
        for name in ("a", "d", "kappa", "f_plus", "f_minus"):
            object.__setattr__(
                self, name,
                _sign_array(getattr(self, name), name, allow_zero=name != "kappa"),
            )
        size1 = len(self.rho1)
        _require(size1 >= 1, "rho1", "at least one hidden-variable value required")
        object.__setattr__(self, "rho1", _weights(self.rho1, "rho1"))
        if self.family == TWO_SOURCE:
            _require(self.rho4 is not None, "rho4",
                     "two_source models carry a second weight vector")
            size4 = len(self.rho4)
            object.__setattr__(self, "rho4", _weights(self.rho4, "rho4"))
            _require(self.a.shape == (m, size1), "A",
                     f"expected shape {(m, size1)}, got {self.a.shape}")
            _require(self.d.shape == (m, size4), "D",
                     f"expected shape {(m, size4)}, got {self.d.shape}")
            _require(self.kappa.shape == (size1, size4), "kappa",
                     f"expected shape {(size1, size4)}, got {self.kappa.shape}")
            fshape = (m, m, size1, size4)
        else:
            _require(self.rho4 is None, "rho4",
                     "single_source models carry one shared weight vector")
            _require(self.a.shape == (m, size1), "A",
                     f"expected shape {(m, size1)}, got {self.a.shape}")
            _require(self.d.shape == (m, size1), "D",
                     f"expected shape {(m, size1)}, got {self.d.shape}")
            _require(self.kappa.shape == (size1,), "kappa",
                     f"expected shape {(size1,)}, got {self.kappa.shape}")
            fshape = (m, m, size1)
        for name in ("f_plus", "f_minus"):
            table = getattr(self, name)
            _require(table.shape == fshape, name.replace("f_", "F_") + "_sector",
                     f"expected shape {fshape}, got {table.shape}")
        for name in ("a", "d", "kappa", "f_plus", "f_minus"):
            _read_only(getattr(self, name))

    @property
    def steps(self) -> int:
        """Number of grid angles, 2n."""
        return 2 * self.n

    @property
    def size1(self) -> int:
        return len(self.rho1)

    @property
    def size4(self) -> int:
        return len(self.rho4) if self.rho4 is not None else len(self.rho1)

    @cached_property
    def analyzer(self) -> np.ndarray:
        """Analyzer table with each assignment's sector already selected by kappa.

        Shape (2n, 2n, L1, L4) for two_source, (2n, 2n, L) for single_source.
        Entries of the unused sector never appear.
        """
        return _read_only(np.where(self.kappa == 1, self.f_plus, self.f_minus))

    @cached_property
    def products(self) -> np.ndarray:
        """All outcome products at once, int8.

        Shape (2n, 2n, 2n, 2n, L1, L4) indexed by the four angle steps then
        the hidden variables; single_source drops the last axis. Small grids
        keep this comfortably in memory and every scan over it is exact.
        """
        f = self.analyzer
        if self.family == SINGLE_SOURCE:
            return _read_only(
                self.a[:, None, None, None, :]
                * f[None, :, :, None, :]
                * self.d[None, None, None, :, :]
            )
        return _read_only(
            self.a[:, None, None, None, :, None]
            * f[None, :, :, None, :, :]
            * self.d[None, None, None, :, None, :]
        )

    @cached_property
    def weight_mask(self) -> np.ndarray:
        """Boolean mask over hidden-variable assignments carrying positive weight."""
        mask = np.array([w > 0 for w in self.rho1])
        if self.rho4 is not None:
            mask = mask[:, None] & np.array([w > 0 for w in self.rho4])[None, :]
        return _read_only(mask)

    @cached_property
    def sectors(self) -> tuple[int, ...]:
        """Sectors that carry positive hidden-variable weight, in (+1, -1) order."""
        announced = self.kappa[self.weight_mask]
        return tuple(s for s in (1, -1) if (announced == s).any())

    @cached_property
    def sector_events(self) -> dict[int, np.ndarray]:
        """Weighted live events per sector, as booleans over (angles..., hidden).

        An event is live where all three devices fire, weighted where its
        assignment carries weight, and in the sector that kappa announces.
        """
        # trailing-axis broadcasting aligns both the weight and sector masks
        live = (self.products != 0) & self.weight_mask
        return {s: _read_only(live & (self.kappa == s)) for s in (1, -1)}

    def sector_table(self, sector: int) -> np.ndarray:
        if sector == 1:
            return self.f_plus
        if sector == -1:
            return self.f_minus
        raise ValueError(f"sector must be +1 or -1, got {sector}")

    def assignments(self) -> Iterator[tuple[int, int | None, Fraction]]:
        """All hidden-variable assignments with their weights."""
        if self.family == SINGLE_SOURCE:
            for l, w in enumerate(self.rho1):
                yield l, None, w
        else:
            assert self.rho4 is not None
            for l1, w1 in enumerate(self.rho1):
                for l4, w4 in enumerate(self.rho4):
                    yield l1, l4, w1 * w4


def _lookup(model: LhvModel, phis: Sequence[int], l1: int, l4: int | None):
    """Raw factors (first response, analyzer response, last response, sector)."""
    p1, p2, p3, p4 = phis
    if model.family == SINGLE_SOURCE:
        sector = int(model.kappa[l1])
        f = int(model.sector_table(sector)[p2, p3, l1])
        return int(model.a[p1, l1]), f, int(model.d[p4, l1]), sector
    sector = int(model.kappa[l1, l4])
    f = int(model.sector_table(sector)[p2, p3, l1, l4])
    return int(model.a[p1, l1]), f, int(model.d[p4, l4]), sector


def event_count(model: LhvModel, phis: Sequence[int], sector: int) -> Fraction:
    """Expected number of recorded fourfold events in one sector.

    Half the nominal emission count times the weight of assignments whose
    announcement matches the sector and whose three devices all fire.
    """
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector}")
    total = Fraction(0)
    for l1, l4, w in model.assignments():
        first, analyzer, last, found = _lookup(model, phis, l1, l4)
        if found == sector and first * analyzer * last:
            total += w
    return Fraction(model.n0, 2) * total


def classical_expectation(
    model: LhvModel,
    phis: Sequence[int],
    sector: int = 1,
    analyzer_sign: int | None = -1,
) -> Fraction | None:
    """Weighted average of the outcome product over conditioned events.

    Conditions on the announcement sector and, unless ``analyzer_sign`` is
    None, on the analyzer's reported sign within it (the default -1 picks the
    singlet-type announcement). Returns None when no conditioned event has
    weight, which is distinct from an average of zero.
    """
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector}")
    num = Fraction(0)
    den = Fraction(0)
    for l1, l4, w in model.assignments():
        first, analyzer, last, found = _lookup(model, phis, l1, l4)
        if found != sector:
            continue
        if analyzer_sign is not None and analyzer != analyzer_sign:
            continue
        product = first * analyzer * last
        num += w * product
        den += w * abs(product)
    if den == 0:
        return None
    return num / den


def realized_sectors(model: LhvModel) -> tuple[int, ...]:
    """The model's cached :attr:`LhvModel.sectors`."""
    return model.sectors


def selected_analyzer(model: LhvModel) -> np.ndarray:
    """The model's cached, read-only :attr:`LhvModel.analyzer`."""
    return model.analyzer


def product_tensor(model: LhvModel) -> np.ndarray:
    """The model's cached, read-only :attr:`LhvModel.products`."""
    return model.products


def positive_weight_mask(model: LhvModel) -> np.ndarray:
    """The model's cached, read-only :attr:`LhvModel.weight_mask`."""
    return model.weight_mask


# file format: one JSON document, tables as nested row-major lists,
# weights as exact rational strings

def dumps(model: LhvModel) -> str:
    doc = {
        "family": model.family,
        "n": model.n,
        "lambda1": model.size1,
        "lambda4": model.size4 if model.family == TWO_SOURCE else None,
        "A": model.a.tolist(),
        "D": model.d.tolist(),
        "kappa": model.kappa.tolist(),
        "F_plus_sector": model.f_plus.tolist(),
        "F_minus_sector": model.f_minus.tolist(),
        "rho1": [str(w) for w in model.rho1],
        "rho4": [str(w) for w in model.rho4] if model.rho4 is not None else None,
        "n0": model.n0,
    }
    return json.dumps(doc, indent=1)


def loads(text: str) -> LhvModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"document: not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "document", "top level must be an object")
    required = {
        "family", "n", "lambda1", "lambda4", "A", "D", "kappa",
        "F_plus_sector", "F_minus_sector", "rho1", "rho4", "n0",
    }
    missing = required - doc.keys()
    _require(not missing, "document", f"missing fields: {sorted(missing)}")
    family = doc["family"]
    _require(family in (TWO_SOURCE, SINGLE_SOURCE), "family",
             f"unknown family {family!r}")
    if family == SINGLE_SOURCE:
        _require(doc["lambda4"] is None, "lambda4",
                 "single_source models must not carry a second hidden-variable set")
        _require(doc["rho4"] is None, "rho4",
                 "single_source models must not carry a second weight vector")
    else:
        _require(doc["lambda4"] is not None, "lambda4",
                 "two_source models need a second hidden-variable set")
        _require(doc["rho4"] is not None, "rho4",
                 "two_source models need a second weight vector")
    for field, size_field in (("rho1", "lambda1"), ("rho4", "lambda4")):
        if doc[field] is None:
            continue
        _require(isinstance(doc[field], list), field, "must be a list")
        declared = doc[size_field]
        _require(_is_int(declared), size_field,
                 f"declared size must be an integer, got {declared!r}")
        _require(
            declared == len(doc[field]),
            size_field,
            f"declared size {declared!r} does not match {field} length"
            f" {len(doc[field])}",
        )
    try:
        model = LhvModel(
            family=family,
            n=doc["n"],
            a=doc["A"],
            d=doc["D"],
            kappa=doc["kappa"],
            f_plus=doc["F_plus_sector"],
            f_minus=doc["F_minus_sector"],
            rho1=doc["rho1"],
            rho4=doc["rho4"],
            n0=doc["n0"],
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"document: malformed table data: {exc}") from exc
    return model


def load(path: str | Path) -> LhvModel:
    return loads(Path(path).read_text())


def save(model: LhvModel, path: str | Path) -> None:
    Path(path).write_text(dumps(model) + "\n")
