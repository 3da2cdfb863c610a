"""Finite deterministic local-hidden-variable models with inefficient detectors.

A model assigns to every hidden-variable value a tri-valued response for each
analysis angle: +1 or -1 for a detected polarization outcome, 0 when the
detector stays silent. The two outer stations respond through tables
``a`` and ``d``; the joint analyzer between them responds through one table
per announcement sector, with a sign map ``kappa`` choosing which sector a
hidden-variable pair belongs to. Weights are exact rationals so counts and
expectations never accumulate rounding error.

Families differ only in their hidden axes, the shape of ``kappa``:

* ``two_source``: (L1, L4), independent hidden variables on each side;
  tables are indexed by (angle, lam1), (angle, lam4), (angle, angle, lam1,
  lam4), and the joint weight is the product of the two marginals.
* ``single_source``: (L,), one shared hidden variable feeds all three
  devices; tables drop the second hidden index and ``rho4`` is absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .angles import UsageError

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

# bytes per product-tensor entry: a conservative estimate of what the
# derived tables take, sized when the robustness gate built the int8 tensor,
# a same-size table of required signs and their scratch. The gate now reads
# per-sector masks instead, well under it; the value is kept so that no
# size refusal moves
_BYTES_PER_PRODUCT = 8


# each sign table's attribute and its name in the file format
_TABLE_FIELDS = {
    "a": "A", "d": "D", "kappa": "kappa",
    "f_plus": "F_plus_sector", "f_minus": "F_minus_sector",
}


class ModelFormatError(UsageError):
    """A model violates the file format or a structural invariant."""


class SizeLimitError(UsageError):
    """An input whose tables would exceed MAX_TABLE_BYTES; nothing was built."""


def _refuse_oversize(what: Callable[[], str], estimate: int) -> None:
    """Raise SizeLimitError, naming the estimate, when it exceeds the limit;
    ``what()`` names the input, and is called only then."""
    if estimate > MAX_TABLE_BYTES:
        raise SizeLimitError(
            f"{what()} would take an estimated {estimate / 2**20:,.0f} MiB,"
            f" over the {MAX_TABLE_BYTES // 2**20} MiB limit"
        )


def _refuse_product_tensor(model: LhvModel) -> None:
    """SizeLimitError, naming :attr:`LhvModel.tensor_bytes`, for a model
    over the limit: the one refusal of the tables derived from a model."""
    _refuse_oversize(lambda: f"the product tensor of {model._size_label}",
                     model.tensor_bytes)


def _require(condition: bool, path: str, message: str | Callable[[], str]) -> None:
    """ModelFormatError "path: message" unless ``condition``; a callable
    ``message`` is called only then."""
    if not condition:
        raise ModelFormatError(f"{path}: {message() if callable(message) else message}")


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
    """Any table input, array or nested list, as its int8 table through
    numpy, each refusal in numpy's terms."""
    # a copy at the input's own dtype: the model owns its tables, so no
    # caller alias can change them, and nothing is cast before it is checked
    try:
        arr = np.array(values)
    except ValueError as exc:  # a ragged nested list
        raise ModelFormatError(f"{path}: malformed table data: {exc}") from exc
    if arr.size:
        allowed = [-1, 0, 1] if allow_zero else [-1, 1]
        if arr.dtype.kind not in "iu" or (
            not isinstance(values, np.ndarray) and _has_bool(values, arr.ndim)
        ):
            raise ModelFormatError(f"{path}: values must be integers in {allowed}")
        if arr.dtype == np.int8:
            # -1, 0 and 1 are the bytes 255, 0 and 1, which adding 1 wraps
            # to 0, 1 and 2; every other value lands above 2
            out_of_range = (arr.view(np.uint8) + 1).max() > 2
        else:
            out_of_range = arr.min() < -1 or arr.max() > 1
        if out_of_range or not (allow_zero or arr.all()):
            raise ModelFormatError(f"{path}: values must lie in {allowed}")
    return arr.astype(np.int8, copy=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _fraction(value) -> Fraction | None:
    """A weight as a Fraction, None when it names no rational number."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


# bounded: documents repeat a handful of weight vectors, an entry each
@lru_cache(maxsize=256)
def _parsed_weights(values: tuple[str | Fraction, ...]) -> tuple[Fraction, ...] | None:
    """A vector of weight texts, or of Fractions, as Fractions when each
    names a nonnegative rational and they sum to exactly 1, else None.

    Parsing text runs a regex, a few microseconds a weight, and checking
    and summing Fractions costs about as much, so whole vectors are cached;
    a tuple of strings or of Fractions is always hashable, and no key of one
    kind equals a key of the other.
    """
    weights = tuple(map(_fraction, values))
    if None in weights or min(weights) < 0 or sum(weights) != 1:
        return None
    return weights


def _weights(values, path: str) -> tuple[Fraction, ...]:
    _require(isinstance(values, (list, tuple)), path, "must be a list")
    _require(len(values) >= 1, path, "at least one hidden-variable value required")
    kinds = set(map(type, values))
    if kinds == {str} or kinds == {Fraction}:
        parsed = _parsed_weights(tuple(values))
        if parsed is not None:
            return parsed
    out = []
    for i, v in enumerate(values):
        # JSON true/false would otherwise pass as the weights 1 and 0, and
        # a float as its binary expansion (0.1 as 3602879701896397/2**55)
        _require(not isinstance(v, (*_BOOL_TYPES, float, np.floating)), f"{path}[{i}]",
                 f"not a rational number: {v!r}")
        w = _fraction(v)
        _require(w is not None, f"{path}[{i}]", f"not a rational number: {v!r}")
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
                 lambda: f"unknown family {self.family!r}")
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
        object.__setattr__(self, "rho1", _weights(self.rho1, "rho1"))
        size1 = len(self.rho1)
        if self.family == TWO_SOURCE:
            _require(self.rho4 is not None, "rho4",
                     "two_source models carry a second weight vector")
            object.__setattr__(self, "rho4", _weights(self.rho4, "rho4"))
            hidden = (size1, len(self.rho4))
        else:
            _require(self.rho4 is None, "rho4",
                     "single_source models carry one shared weight vector")
            hidden = (size1,)
        shapes = {"a": (m, size1), "d": (m, hidden[-1]), "kappa": hidden,
                  "f_plus": (m, m) + hidden, "f_minus": (m, m) + hidden}
        for name, shape in shapes.items():
            table = getattr(self, name)
            _require(table.shape == shape, _TABLE_FIELDS[name],
                     lambda: f"expected shape {shape}, got {table.shape}")
            _read_only(table)

    @property
    def steps(self) -> int:
        """Number of grid angles, 2n."""
        return 2 * self.n

    @property
    def size1(self) -> int:
        return self.kappa.shape[0]

    @property
    def size4(self) -> int:
        """The last station's hidden count; a single source's is its one count."""
        return self.kappa.shape[-1]

    @property
    def tensor_bytes(self) -> int:
        """Conservative estimate, in bytes, of the product tensor and of the
        tables the gate once built at its size; every size refusal of the
        derived tables reads it, so none has moved."""
        return self.steps ** 4 * self.kappa.size * _BYTES_PER_PRODUCT

    @property
    def _size_label(self) -> str:
        """The model as size refusals name it, by grid and hidden counts."""
        hidden = "x".join(map(str, self.kappa.shape))
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
        the hidden variables; single_source drops the last axis. Nothing in
        the pipeline builds it: counts, expectations, the robustness gate and
        the derivation read the tables at their tuples or through
        :attr:`event_signs`. A model whose :attr:`tensor_bytes` exceed
        MAX_TABLE_BYTES raises SizeLimitError before anything is allocated.
        """
        _refuse_product_tensor(self)
        m, lam = self.steps, self.kappa.shape
        a, d = _station_axes(self)
        # a * f over the first three angles, repeated along the fourth and
        # multiplied by d there: both factors then run contiguously over
        # (last angle, hidden), so numpy loops over long rows rather than
        # the short hidden axes
        head = (a[:, None, None] * self.analyzer[None]).reshape(m**3, 1, -1)
        out = np.repeat(head, m, axis=1)
        out *= np.broadcast_to(d, (m,) + lam).reshape(1, m, -1)
        return _read_only(out.reshape((m,) * 4 + lam))

    @cached_property
    def weight_mask(self) -> np.ndarray:
        """Boolean mask over hidden-variable assignments carrying positive
        weight: the outer product of the sources' own masks, weights being
        nonnegative."""
        mask = np.array([w > 0 for w in self.rho1])
        if self.rho4 is not None:
            mask = np.logical_and.outer(mask, [w > 0 for w in self.rho4])
        return _read_only(mask)

    @cached_property
    def sectors(self) -> tuple[int, ...]:
        """Sectors that carry positive hidden-variable weight, in (+1, -1) order."""
        announced = self.kappa[self.weight_mask]
        return tuple(s for s in (1, -1) if (announced == s).any())

    @cached_property
    def event_signs(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per realized sector, over the angle tuples: where a weighted event
        has product +1, where one has -1, and both as one int8 table, the
        classical expectation, 0 where no event defines it. No product
        tensor is read: see :func:`_event_kernel`.
        """
        signs = {}
        masks = {s: _sector_assignments(self, s) for s in self.sectors}
        for s, (has_pos, has_neg) in _event_kernel(self, masks).items():
            # -1 wherever a -1 event exists, else 1 where a +1 event does
            table = has_pos.view(np.int8) | -has_neg.view(np.int8)
            signs[s] = tuple(map(_read_only, (has_pos, has_neg, table)))
        return signs

    @cached_property
    def law_signs(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per sector kappa announces, weighted assignment or not, over the
        angle tuples: where an assignment has product +1 and where one has
        -1, what the correlation law judges. Where every assignment carries
        weight these are :attr:`event_signs`' own tables.
        """
        if self.weight_mask.all():
            return {s: table[:2] for s, table in self.event_signs.items()}
        kappa = self.kappa.ravel()
        masks = {s: kappa == s for s in (1, -1) if (kappa == s).any()}
        kernel = _event_kernel(self, masks)
        return {s: tuple(map(_read_only, pair)) for s, pair in kernel.items()}

    @cached_property
    def assignment_weights(self) -> tuple[Fraction, ...]:
        """Each hidden-variable assignment's weight, flat in row-major order."""
        if self.rho4 is None:
            return self.rho1
        return tuple(w1 * w4 for w1 in self.rho1 for w4 in self.rho4)

    def assignments(self) -> Iterator[tuple[int, int | None, Fraction]]:
        """All hidden-variable assignments with their weights."""
        if self.rho4 is None:
            for l, w in enumerate(self.assignment_weights):
                yield l, None, w
        else:
            for i, w in enumerate(self.assignment_weights):
                yield (*divmod(i, self.size4), w)


def _uniform_model(n: int, a, d, kappa, analyzer) -> LhvModel:
    """Uniform weights per source, ``analyzer`` in both sectors, ``n0 = 4n``.

    ``kappa``'s shape picks the family: (L1, L4) two sources, (L,) one.
    """
    rho1, *rho4 = ([Fraction(1, size)] * size for size in np.shape(kappa))
    return LhvModel(
        family=TWO_SOURCE if rho4 else SINGLE_SOURCE, n=n, a=a, d=d, kappa=kappa,
        f_plus=analyzer, f_minus=analyzer, rho1=rho1,
        rho4=rho4[0] if rho4 else None, n0=4 * n,
    )


def _sector_assignments(model: LhvModel, sector: int) -> np.ndarray:
    """Flat mask of the weighted assignments that kappa puts in ``sector``."""
    return (model.weight_mask & (model.kappa == sector)).ravel()


def _station_axes(model: LhvModel) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``d`` each on its own hidden axis, the first and the last
    (one and the same axis for a single source), to broadcast against the
    analyzer's hidden axes."""
    m, lam = model.steps, model.kappa.shape
    ones = (1,) * (len(lam) - 1)
    return model.a.reshape((m, lam[0]) + ones), model.d.reshape((m,) + ones + (lam[-1],))


def _event_kernel(
    model: LhvModel, masks: dict[int, np.ndarray]
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per sector, over the angle tuples (k1, k2, k3, k4): where an
    assignment of the sector's flat mask has product +1 and where one has -1.

    With rows x of a(k1)*d(k4) over the masked assignments and rows y of the
    analyzer at (k2, k3), x @ y.T sums each tuple's products and |x| @ |y|.T
    counts its nonzero ones, exact in float32: a +1 exists where the count
    exceeds minus the sum, a -1 where it exceeds the sum. No product tensor
    is built, and the float32 sums are taken a block of k1 values at a time,
    about 1 MiB a block. The product tensor's size refusal comes first.
    """
    _refuse_product_tensor(model)
    m = model.steps
    if model.rho4 is None:  # one hidden value feeds both stations
        pair = model.a[:, None] * model.d[None]
    else:
        pair = np.multiply.outer(model.a, model.d).transpose(0, 2, 1, 3)
    pair = pair.reshape(m * m, -1).astype(np.float32)
    y = model.analyzer.reshape(m * m, -1).astype(np.float32)
    y_abs = np.abs(y)
    block = max(1, 2**17 // m**3)
    out = {}
    for s, mask in masks.items():
        x = pair * mask
        has_pos, has_neg = np.empty((2,) + (m,) * 4, dtype=bool)
        for k1 in range(0, m, block):
            rows = x[k1 * m:(k1 + block) * m]
            total, count = rows @ y.T, np.abs(rows) @ y_abs.T
            # rows (k1, k4) and columns (k2, k3), stored as (k1, k2, k3, k4)
            has_neg[k1:k1 + block] = (count > total).reshape(-1, m, m, m).transpose(0, 2, 3, 1)
            count += total
            has_pos[k1:k1 + block] = (count > 0).reshape(-1, m, m, m).transpose(0, 2, 3, 1)
        out[s] = has_pos, has_neg
    return out


def _products_at(model: LhvModel, tuples) -> np.ndarray:
    """The outcome products at each angle tuple of an (N, 4) array, flat over
    the hidden assignments, gathered from the tables: the product tensor's
    rows there, without the tensor."""
    k1, k2, k3, k4 = np.asarray(tuples).reshape(-1, 4).T
    a, d = _station_axes(model)
    return (a[k1] * model.analyzer[k2, k3] * d[k4]).reshape(len(k1), -1)


def _events_at(model: LhvModel, sector: int, tuples) -> tuple[np.ndarray, np.ndarray]:
    """Products at each angle tuple of an (N, 4) array, flat over the hidden
    assignments, and where each is a weighted live event in ``sector``: all
    three devices fire on an assignment that carries weight and that kappa
    puts in the sector. The product tensor's size refusal comes first."""
    _refuse_product_tensor(model)
    products = _products_at(model, tuples)
    return products, (products != 0) & _sector_assignments(model, sector)


def _live_events(
    model: LhvModel, phis: Sequence[int], sector: int, analyzer_sign: int | None
) -> list[tuple[Fraction, int]]:
    """Weight and outcome product of each weighted live event at one tuple,
    those whose analyzer reports ``analyzer_sign`` unless it is None; the
    arguments are checked before any table is read."""
    if sector not in (1, -1):
        raise ValueError(f"sector must be +1 or -1, got {sector}")
    if analyzer_sign not in (1, -1, None):
        raise ValueError(f"analyzer_sign must be +1, -1 or None, got {analyzer_sign!r}")
    p1, p2, p3, p4 = phis
    if not all(0 <= p < model.steps for p in (p1, p2, p3, p4)):
        raise ValueError(f"angle steps {tuple(phis)} lie outside [0, {model.steps})")
    (products,), (live,) = _events_at(model, sector, [(p1, p2, p3, p4)])
    if analyzer_sign is not None:
        live &= (model.analyzer[p2, p3] == analyzer_sign).ravel()
    return list(compress(zip(model.assignment_weights, products.tolist()), live.tolist()))


def event_count(model: LhvModel, phis: Sequence[int], sector: int) -> Fraction:
    """Expected number of recorded fourfold events in one sector.

    Half the nominal emission count times the weight of assignments whose
    announcement matches the sector and whose three devices all fire. A
    sector other than +1 or -1, or a step outside [0, 2n), raises ValueError.
    """
    events = _live_events(model, phis, sector, None)
    return Fraction(model.n0, 2) * sum((w for w, _ in events), Fraction(0))


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
    weight, which is distinct from an average of zero. Refuses the arguments
    :func:`event_count` refuses, and any other ``analyzer_sign``, with ValueError.
    """
    events = _live_events(model, phis, sector, analyzer_sign)
    if not events:
        return None
    num = sum((w * product for w, product in events), Fraction(0))
    return num / sum((w for w, _ in events), Fraction(0))


# the cached views by their public names, for callers and for perfbench's
# traced layers; the package itself reads the attributes
def realized_sectors(model: LhvModel) -> tuple[int, ...]:
    """The model's cached :attr:`LhvModel.sectors`."""
    return model.sectors


def selected_analyzer(model: LhvModel) -> np.ndarray:
    """The model's cached, read-only :attr:`LhvModel.analyzer`."""
    return model.analyzer


def product_tensor(model: LhvModel) -> np.ndarray:
    """The model's cached, read-only :attr:`LhvModel.products`: the tests'
    reference oracle for the tables the pipeline reads without it."""
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


# what _canonical_model keeps of the tables' text: digits and "-", the
# digits 0 and 1 as the bytes of their values
_NOT_LEAF = bytes(sorted(set(range(256)).difference(b"-0123456789")))
_LEAF_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _canonical_model(text) -> LhvModel | None:
    """The model whose :func:`dumps` is ``text``, with or without one
    trailing newline, its tables read without JSON; None for any other text.

    The span from "A" to "rho1" holds no digit but the tables' leaves, so
    one ``bytes.translate`` keeps exactly the leaves' text, one replace
    makes each "-1" the byte of -1, and the five int8 tables are views of
    the result. Only the rest of the document, a few hundred bytes, goes
    through json.loads, and the leaf count must match the declared sizes
    before any table is built. The model is kept only when dumps gives the
    text back byte for byte: json.loads(text) is then the document dumps
    encodes, so the general route would build the same model.
    """
    if not isinstance(text, str):
        return None
    start = text.find(',\n "A": ')
    stop = text.rfind(',\n "rho1": ')
    if not 0 <= start < stop:
        return None
    try:
        head = json.loads(text[:start] + text[stop:])
        n, size1, size4 = head["n"], head["lambda1"], head["lambda4"]
        hidden = (size1,) if size4 is None else (size1, size4)
        # integers only: the sizes below would repeat a string or a list
        if not all(map(_is_int, (n, *hidden))):
            return None
        m = 2 * n
        shapes = ((m, size1), (m, hidden[-1]), hidden, (m, m) + hidden, (m, m) + hidden)
        sizes = [math.prod(shape) for shape in shapes]
        leaves = (text[start:stop].encode("ascii").translate(_LEAF_BYTES, _NOT_LEAF)
                  .replace(b"-\x01", b"\xff"))
        if len(leaves) != sum(sizes):
            return None
        tables = (np.frombuffer(leaves, np.int8, size, offset).reshape(shape)
                  for size, offset, shape in zip(sizes, accumulate(sizes, initial=0), shapes))
        model = LhvModel(head["family"], n, *tables, rho1=head["rho1"], rho4=head["rho4"],
                         n0=head["n0"])
    except (ValueError, TypeError, KeyError, RecursionError):
        return None  # the general route words every refusal
    out = dumps(model)
    return model if text == out or text == out + "\n" else None


def loads(text: str) -> LhvModel:
    """A model from its document; ``LhvModel`` checks all but the file's own rules.

    A document as :func:`dumps` or :func:`save` writes it is read by
    :func:`_canonical_model`; any other layout, and every refusal, takes
    the general route: json.loads, then each nested table through numpy.
    """
    model = _canonical_model(text)
    if model is not None:
        return model
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"document: not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ModelFormatError(f"document: nested too deeply: {exc}") from exc
    _require(isinstance(doc, dict), "document", "top level must be an object")
    same_name = ("family", "n", "rho1", "rho4", "n0")  # fields named as in LhvModel
    missing = {"lambda1", "lambda4", *same_name, *_TABLE_FIELDS.values()} - doc.keys()
    _require(not missing, "document", lambda: f"missing fields: {sorted(missing)}")
    model = LhvModel(**{name: doc[name] for name in same_name},
                     **{name: doc[path] for name, path in _TABLE_FIELDS.items()})
    # the declared sizes restate the vectors' lengths, null for no vector
    for field, size_field in (("rho1", "lambda1"), ("rho4", "lambda4")):
        weights, declared = getattr(model, field), doc[size_field]
        if weights is None:
            _require(declared is None, size_field,
                     lambda: f"declared size {declared!r} for a null {field}")
            continue
        _require(_is_int(declared), size_field,
                 lambda: f"declared size must be an integer, got {declared!r}")
        _require(declared == len(weights), size_field,
                 lambda: f"declared size {declared!r} does not match {field} length"
                         f" {len(weights)}")
    return model


def load(path: str | Path) -> LhvModel:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"document: not text: {exc}") from exc
    return loads(text)


def save(model: LhvModel, path: str | Path) -> None:
    Path(path).write_text(dumps(model) + "\n")
