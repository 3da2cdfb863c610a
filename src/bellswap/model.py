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
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ModelFormatError",
    "SizeLimitError",
    "MAX_TABLE_BYTES",
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


# largest estimated allocation a model's derived tables (or the single-source
# scan's signature tables) may take; larger inputs are refused up front
MAX_TABLE_BYTES = 512 * 2**20

# bytes per product-tensor entry: the int8 tensor itself plus the same-size
# masks built over it (firing, two sector-event masks, required signs and
# the robustness gate's scratch)
_BYTES_PER_PRODUCT = 8


# each sign table's attribute and its name in the file format
_TABLE_FIELDS = {
    "a": "A", "d": "D", "kappa": "kappa",
    "f_plus": "F_plus_sector", "f_minus": "F_minus_sector",
}


class ModelFormatError(ValueError):
    """A model violates the file format or a structural invariant."""


class SizeLimitError(ValueError):
    """An input whose tables would exceed MAX_TABLE_BYTES; nothing was built."""


def _refuse_oversize(what: str, estimate: int) -> None:
    """Raise SizeLimitError, naming the estimate, when it exceeds the limit."""
    if estimate > MAX_TABLE_BYTES:
        raise SizeLimitError(
            f"{what} would take an estimated {estimate / 2**20:,.0f} MiB,"
            f" over the {MAX_TABLE_BYTES // 2**20} MiB limit"
        )


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ModelFormatError(f"{path}: {message}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


_BOOL_TYPES = (bool, np.bool_)


def _has_bool(values, depth: int) -> bool:
    """Whether a nested sequence holds a bool, which numpy would read as 0/1."""
    flat = [values]
    for _ in range(depth):
        flat = chain.from_iterable(flat)
    return bool(set(map(type, flat)).intersection(_BOOL_TYPES))


def _sign_array(values, path: str, allow_zero: bool) -> np.ndarray:
    # a copy at the input's own dtype: the model owns its tables, so no
    # caller alias can change them, and nothing is cast before it is checked
    arr = np.array(values)
    if arr.size:
        allowed = [-1, 0, 1] if allow_zero else [-1, 1]
        if arr.dtype.kind not in "iu" or (
            not isinstance(values, np.ndarray) and _has_bool(values, arr.ndim)
        ):
            raise ModelFormatError(f"{path}: values must be integers in {allowed}")
        if arr.min() < -1 or arr.max() > 1 or not (allow_zero or arr.all()):
            raise ModelFormatError(f"{path}: values must lie in {allowed}")
    return arr.astype(np.int8, copy=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _weights(values, path: str) -> tuple[Fraction, ...]:
    out = []
    for i, v in enumerate(values):
        # JSON true/false would otherwise pass as the weights 1 and 0, and
        # a float as its binary expansion (0.1 as 3602879701896397/2**55)
        _require(not isinstance(v, (*_BOOL_TYPES, float, np.floating)), f"{path}[{i}]",
                 f"not a rational number: {v!r}")
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
        for name, path in _TABLE_FIELDS.items():
            object.__setattr__(
                self, name,
                _sign_array(getattr(self, name), path, allow_zero=name != "kappa"),
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
            _require(table.shape == fshape, _TABLE_FIELDS[name],
                     f"expected shape {fshape}, got {table.shape}")
        for name in _TABLE_FIELDS:
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

    @property
    def tensor_bytes(self) -> int:
        """Estimated bytes of the product tensor and the masks built over it."""
        hidden = self.size1 * (self.size4 if self.family == TWO_SOURCE else 1)
        return self.steps ** 4 * hidden * _BYTES_PER_PRODUCT

    @property
    def _size_label(self) -> str:
        """The model as size refusals name it, by grid and hidden counts."""
        hidden = (f"{self.size1}x{self.size4}" if self.family == TWO_SOURCE
                  else str(self.size1))
        return f"an n={self.n} model with {hidden} hidden values"

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
        keep this comfortably in memory and every scan over it is exact;
        a model whose :attr:`tensor_bytes` exceed MAX_TABLE_BYTES raises
        SizeLimitError before anything is allocated.
        """
        _refuse_oversize(f"the product tensor of {self._size_label}",
                         self.tensor_bytes)
        f = self.analyzer
        m, lam = self.steps, f.shape[2:]
        if self.family == SINGLE_SOURCE:
            a, d = self.a, self.d
        else:
            a, d = self.a[:, :, None], self.d[:, None, :]
        # a * f over the first three angles, repeated along the fourth and
        # multiplied by d there: both factors then run contiguously over
        # (last angle, hidden), so numpy loops over long rows rather than
        # the short hidden axes
        head = (a[:, None, None] * f[None]).reshape(m**3, 1, -1)
        out = np.repeat(head, m, axis=1)
        out *= np.broadcast_to(d, (m,) + lam).reshape(1, m, -1)
        return _read_only(out.reshape((m,) * 4 + lam))

    @cached_property
    def firing(self) -> np.ndarray:
        """Where all three devices fire (``products != 0``), same shape, bool."""
        return _read_only(self.products != 0)

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
        # trailing-axis broadcasting aligns the per-assignment mask
        return {
            s: _read_only(self.firing & (self.weight_mask & (self.kappa == s)))
            for s in (1, -1)
        }

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
        f = int(model.analyzer[p2, p3, l1])
        return int(model.a[p1, l1]), f, int(model.d[p4, l1]), int(model.kappa[l1])
    f = int(model.analyzer[p2, p3, l1, l4])
    return int(model.a[p1, l1]), f, int(model.d[p4, l4]), int(model.kappa[l1, l4])


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
# weights as exact rational strings. dumps writes the one-space-indented
# layout of json.dumps(doc, indent=1) byte for byte: `zoo --model` prints
# the sha256 of this text, so the layout is part of the format.

# bounded: a run meets few table shapes, and an entry holds a byte per leaf
@lru_cache(maxsize=32)
def _table_layout(shape: tuple[int, ...]):
    """Opening text, leaf tokens and token index of a table in the document.

    The text after leaf i depends only on how many trailing axes end there
    (``ends[i]``: 0 inside a row, ndim after the last leaf), so each leaf is
    written as one token, its value followed by that text: the token of a
    leaf with value v is ``tokens[(v + 1) * (ndim + 1) + ends[i]]``.
    """
    ndim = len(shape)
    leaf = 1 + ndim  # indent of the innermost entries

    def reopen(depth: int) -> str:
        return "".join("[\n" + " " * (leaf - depth + 1 + t) for t in range(depth))

    def close(depth: int) -> str:
        return "".join("\n" + " " * (leaf - 1 - t) + "]" for t in range(depth))

    after = [close(j) + ",\n" + " " * (leaf - j) + reopen(j) for j in range(ndim)]
    after.append(close(ndim))
    tokens = np.array([str(v) + text for v in (-1, 0, 1) for text in after], dtype=object)
    ends = np.zeros(math.prod(shape), dtype=np.int8)
    block = 1
    for size in shape[:0:-1]:
        block *= size
        ends[block - 1::block] += 1
    ends[-1] = ndim
    return reopen(ndim), tokens, _read_only(ends)


def _table_text(table: np.ndarray) -> str:
    """``json.dumps(table.tolist(), indent=1)`` as a field of the document."""
    opening, tokens, ends = _table_layout(table.shape)
    index = (table.ravel().astype(np.intp) + 1) * (table.ndim + 1) + ends
    return opening + "".join(tokens[index].tolist())


def _weights_text(weights: tuple[Fraction, ...] | None) -> str:
    """A weight vector as its indented list of ``"p/q"`` strings, or null."""
    if weights is None:
        return "null"
    return "[\n  " + ",\n  ".join(json.dumps(str(w)) for w in weights) + "\n ]"


def dumps(model: LhvModel) -> str:
    fields = {
        "family": json.dumps(model.family),
        "n": json.dumps(model.n),
        "lambda1": json.dumps(model.size1),
        "lambda4": json.dumps(model.size4 if model.family == TWO_SOURCE else None),
        "A": _table_text(model.a),
        "D": _table_text(model.d),
        "kappa": _table_text(model.kappa),
        "F_plus_sector": _table_text(model.f_plus),
        "F_minus_sector": _table_text(model.f_minus),
        "rho1": _weights_text(model.rho1),
        "rho4": _weights_text(model.rho4),
        "n0": json.dumps(model.n0),
    }
    return "{\n" + ",\n".join(f' "{key}": {text}' for key, text in fields.items()) + "\n}"


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
