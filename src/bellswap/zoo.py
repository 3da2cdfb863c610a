"""Catalog of reproducible models, one per behavior the pipeline exercises.

Every constructor is deterministic given its arguments: randomness is always
drawn from a seeded generator, so the same URI always denotes the same model.
The catalog covers the factorizable product family (dense and thinned), one
representative for each way robustness can fail, the two known robust
non-factorizable models, and the shared-source family with its
half-efficiency escape model. Unless a constructor says otherwise, its
model weighs each source's hidden values uniformly, uses one analyzer table
in both sectors and has ``n0 = 4n``; the single-source search's model
``single_source_efficient_50`` has ``n0 = 8n``.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .angles import UsageError
from .model import (
    SINGLE_SOURCE,
    TWO_SOURCE,
    LhvModel,
    _is_int,
    _refuse_oversize,
    _uniform_model,
    load,
)
from .robustness import is_robust
from .search import SearchSpace, _assemble_two_source, search_single_source

__all__ = [
    "ZooError",
    "all_delta_one",
    "synthetic_factorizable",
    "evasive_nonrobust",
    "padded_irrelevant",
    "parity_split_robust",
    "both_sector_robust",
    "single_source_shift",
    "single_source_efficient_50",
    "two_source_shell",
    "catalog",
    "by_uri",
    "resolve",
]


class ZooError(UsageError):
    """A catalog constructor was misused or a model reference is malformed."""


def _signs(rng: np.random.Generator, shape) -> np.ndarray:
    return (1 - 2 * rng.integers(0, 2, size=shape)).astype(np.int8)


def _check_grid(n) -> int:
    if not _is_int(n) or n < 1:
        raise ZooError("grid resolution n must be a positive integer")
    # every catalog model holds at least one m x m int8 analyzer slice
    _refuse_oversize(lambda: f"the analyzer table of an n={n} catalog model", (2 * n) ** 2)
    return 2 * n


def _check_counts(size1, size4) -> None:
    if not (_is_int(size1) and _is_int(size4)):
        raise ZooError(
            f"hidden-variable counts must be integers, got {size1!r} and {size4!r}"
        )
    if size1 < 1 or size4 < 1:
        raise ZooError("hidden-variable counts must be positive")


def _alternating_pair_signs(m: int) -> np.ndarray:
    """The sign sequence +1,+1,-1,-1,... used by the robust catalog models."""
    return np.array([(-1) ** (k // 2) for k in range(m)], dtype=np.int8)


# ---------------------------------------------------------------------------
# factorizable product family


def all_delta_one(n: int = 4, size1: int = 2, size4: int = 2) -> LhvModel:
    """Fully detecting product model with every sign equal to +1.

    All announcements land in the plus sector, so each angle tuple records
    exactly half the nominal emissions there and nothing in the minus
    sector. The reference point for the counting law.
    """
    m = _check_grid(n)
    _check_counts(size1, size4)
    return _uniform_model(
        n,
        np.ones((m, size1), np.int8),
        np.ones((m, size4), np.int8),
        np.ones((size1, size4), np.int8),
        np.ones((m, m, size1, size4), np.int8),
    )


_KAPPA_PATTERNS = ("plus", "minus", "mixed")


def _kappa_pattern(pattern: str, size1: int, size4: int) -> np.ndarray:
    if pattern == "plus":
        return np.ones((size1, size4), np.int8)
    if pattern == "minus":
        return -np.ones((size1, size4), np.int8)
    if pattern == "mixed":
        i = np.arange(size1)[:, None]
        j = np.arange(size4)[None, :]
        return (1 - 2 * ((i + j) % 2)).astype(np.int8)
    raise ZooError(
        f"unknown announcement pattern {pattern!r}; choose from {_KAPPA_PATTERNS}"
    )


# bytes a chunk of hidden pairs' factor rows may take in the support cover
_ROW_BYTES = 2**20


def _missing_slots(
    da: np.ndarray, dd: np.ndarray, df: np.ndarray, l1s: np.ndarray, l4s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the angle tuples no hidden pair (l1s[i], l4s[i]) covers lie.

    Returns the first-station angles, the analyzer cells and the
    last-station angles those tuples touch. With rows x of
    ``da[k1, l1] & dd[k4, l4]`` and rows y of ``df[k2, k3, l1, l4]`` over
    the pairs, as in ``model._event_kernel``, x @ y.T counts the pairs that
    cover each tuple, and a tuple is missing where its count is 0. The
    pairs are taken in chunks whose float32 rows, with their bool sources
    at most 10 bytes per pair and cell, fit in :data:`_ROW_BYTES`, and each
    chunk's zero mask is ANDed into the first's. The counts and masks, 5
    bytes a tuple or 6 with a second chunk, are taken a block of k1 values
    at a time, within half of :func:`_repair_bytes`. All of it lives only
    in this call, so a sector's are freed before the next sector's.
    """
    m = da.shape[0]
    step = max(1, _ROW_BYTES // (10 * m * m))
    chunks = [(l1s[i:i + step], l4s[i:i + step]) for i in range(0, len(l1s), step)]

    def rows(l1, l4):
        # x rows (k1, k4) and y rows (k2, k3)
        x = (da[:, None, l1] & dd[None, :, l4]).reshape(m * m, -1)
        return x.astype(np.float32), df[:, :, l1, l4].reshape(m * m, -1).astype(np.float32)

    def uncovered(xy, cut):
        x, y = xy
        return x[cut] @ y.T == 0

    # one chunk's rows serve every block; more are rebuilt in each block,
    # one chunk's at a time
    first = rows(*chunks[0]) if len(chunks) == 1 else None
    on_a = np.empty(m, dtype=bool)
    on_f = np.zeros(m * m, dtype=bool)
    on_d = np.zeros(m, dtype=bool)
    block = max(1, _repair_bytes(m) // ((10 if first else 12) * m**3))
    for k1 in range(0, m, block):
        cut = slice(k1 * m, (k1 + block) * m)
        missing = uncovered(first or rows(*chunks[0]), cut)
        for chunk in chunks[1:]:
            missing &= uncovered(rows(*chunk), cut)
        missing = missing.reshape(-1, m, m * m)
        on_a[k1:k1 + block] = missing.any(axis=(1, 2))
        on_d |= missing.any(axis=(0, 2))
        on_f |= missing.any(axis=(0, 1))
    return on_a, on_f.reshape(m, m), on_d


def _repair_bytes(m: int) -> int:
    """Estimated peak bytes of ``_repair_support`` on an m-angle grid."""
    # whatever the announcement: two bytes per angle tuple, an m**3 term and
    # numpy's fixed reduction buffers (about 19 KB measured with
    # tracemalloc). The cover's counts and masks take at most half of it;
    # its factor rows, at most _ROW_BYTES, and the sector's hidden pairs
    # scale with the hidden counts, and fall within the 10 bytes per
    # analyzer entry of the hidden-value draw's estimate, refused first
    # (test_repair_peak_keeps_within_the_draw_estimate measures both)
    return 2 * m**4 + m**3 + 2**15


def _repair_support(
    da: np.ndarray, dd: np.ndarray, df: np.ndarray, kappa: np.ndarray
) -> None:
    """Grow detection masks in place until the event guarantees hold.

    One pass per announced sector covers every angle tuple through that
    sector's first hidden pair; a final pass gives each hidden value a
    complete event to participate in. Only ever turns slots on, so the
    drawn support is preserved.
    """
    size1, size4 = kappa.shape
    for sector in (1, -1):
        # two index vectors, 16 bytes a pair, that argwhere would stack
        # into a third
        l1s, l4s = np.nonzero(kappa == sector)
        if not len(l1s):
            continue
        on_a, on_f, on_d = _missing_slots(da, dd, df, l1s, l4s)
        l1, l4 = int(l1s[0]), int(l4s[0])
        da[:, l1] |= on_a
        dd[:, l4] |= on_d
        df[:, :, l1, l4] |= on_f

    # which hidden values, and which analyzer pairs, fire at any angle;
    # each slot switched on below is switched on here too, so every test
    # sees the repairs before it, as the masks do
    fires_a = da.any(axis=0).tolist()
    fires_d = dd.any(axis=0).tolist()
    fires_f = df.any(axis=(0, 1)).tolist()

    def completes(l1: int, l4: int) -> bool:
        return fires_a[l1] and fires_f[l1][l4] and fires_d[l4]

    for l1 in range(size1):
        if not any(completes(l1, l4) for l4 in range(size4)):
            da[0, l1] = df[0, 0, l1, 0] = dd[0, 0] = True
            fires_a[l1] = fires_f[l1][0] = fires_d[0] = True
    for l4 in range(size4):
        if not any(completes(l1, l4) for l1 in range(size1)):
            dd[0, l4] = df[0, 0, 0, l4] = da[0, 0] = True
            fires_d[l4] = fires_f[0][l4] = fires_a[0] = True


def synthetic_factorizable(
    seed: int,
    n: int = 4,
    size1: int = 2,
    size4: int = 2,
    density: float = 1.0,
    kappa: str = "plus",
) -> LhvModel:
    """Random product-form model with detector support thinned then repaired.

    Responses are exact sign products of one constant station sign, one sign
    per hidden value on each side, and detection masks drawn slot-wise at the
    requested density. A deterministic repair pass then restores the events
    the pipeline's entry checks demand (every angle tuple covered in every
    announced sector, every hidden value participating in some event), so
    generation never fails: very low densities simply come back thicker than
    requested. ``kappa`` selects the announcement pattern: ``plus`` or
    ``minus`` send every hidden pair to one sector, ``mixed`` alternates.
    A grid whose repair masks, or hidden counts whose tables, would exceed
    MAX_TABLE_BYTES raise SizeLimitError before anything is drawn.
    """
    m = _check_grid(n)
    if not _is_int(seed) or seed < 0:
        raise ZooError(f"seed must be a nonnegative integer, got {seed!r}")
    _check_counts(size1, size4)
    if not isinstance(density, (int, float)) or not 0.0 <= density <= 1.0:
        raise ZooError(f"density must lie in [0, 1], got {density!r}")
    # the draws and tables take about 9.5 bytes per analyzer entry, measured
    # with tracemalloc: the float64 draw and its bool mask peak together
    _refuse_oversize(
        lambda: f"the hidden-value draw of an n={n} synthetic model with"
                f" {size1}x{size4} hidden values",
        10 * m * m * size1 * size4,
    )
    kappa_table = _kappa_pattern(kappa, size1, size4)
    _refuse_oversize(
        lambda: f"the support repair of an n={n} synthetic model", _repair_bytes(m)
    )
    rng = np.random.default_rng(seed)
    station = _signs(rng, 1)
    u = _signs(rng, size1)
    v = _signs(rng, size4)
    da = rng.random((m, size1)) < density
    dd = rng.random((m, size4)) < density
    df = rng.random((m, m, size1, size4)) < density
    _repair_support(da, dd, df, kappa_table)
    table_a = station * u * da
    table_d = station * v * dd
    # the analyzer's two station signs are one sign squared, +1
    table_f = np.multiply.outer(u, v) * df
    return _uniform_model(n, table_a, table_d, kappa_table, table_f)


# ---------------------------------------------------------------------------
# robustness-failure representatives


def evasive_nonrobust(n: int = 4) -> LhvModel:
    """Model correct at exactly one angle tuple and silent everywhere else.

    All three devices fire only at angle step 0, producing the demanded +1
    product there; every other tuple records no event at all, which is
    precisely the evasion the event-count requirement exists to reject.
    The minus-sector table is silent, but nothing announces that sector.
    """
    m = _check_grid(n)
    a = np.zeros((m, 1), np.int8)
    a[0, 0] = 1
    f = np.zeros((m, m, 1, 1), np.int8)
    f[0, 0, 0, 0] = 1
    return LhvModel(
        family=TWO_SOURCE,
        n=n,
        a=a,
        d=a.copy(),
        kappa=np.ones((1, 1), np.int8),
        f_plus=f,
        f_minus=np.zeros((m, m, 1, 1), np.int8),
        rho1=[Fraction(1)],
        rho4=[Fraction(1)],
        n0=4 * n,
    )


def padded_irrelevant(n: int = 4) -> LhvModel:
    """A robust model padded with one hidden value that never fires.

    Starts from the parity-split robust model and appends a third
    first-source hidden value whose station and analyzer responses are all
    zero. Counts and correlations still hold through the live values, so the
    relevance check is the only one that fails, naming the padded value.
    """
    base = parity_split_robust(n)
    m = base.steps
    a = np.hstack([base.a, np.zeros((m, 1), np.int8)])
    f = np.concatenate([base.f_plus, np.zeros((m, m, 1, base.size4), np.int8)], axis=2)
    kappa = np.vstack([base.kappa, np.ones((1, base.size4), np.int8)])
    return _uniform_model(n, a, base.d, kappa, f)


# ---------------------------------------------------------------------------
# robust non-factorizable models


def _verified_robust(model: LhvModel, name: str) -> LhvModel:
    report = is_robust(model)
    if not report.is_robust:
        raise ZooError(
            f"{name} holds on its documented grid only; "
            f"n={model.n} breaks the construction"
        )
    return model


def parity_split_robust(n: int = 4) -> LhvModel:
    """Robust model whose two hidden values split the angle grid by parity.

    Each hidden value fires on one angle parity with the +1,+1,-1,-1 sign
    sequence; every correlated tuple routes through exactly one
    parity-matched pair, satisfying the full correlation law with events
    everywhere, yet no per-source sign assignment reproduces the analyzer
    table. The constructor re-verifies robustness and refuses grids where
    the construction degrades.
    """
    m = _check_grid(n)
    seq = _alternating_pair_signs(m)
    a = np.zeros((m, 2), np.int8)
    for k in range(m):
        a[k, k % 2] = seq[k]
    model = _assemble_two_source(a, a.copy(), np.ones((2, 2), np.int8), n)
    return _verified_robust(model, "parity_split_robust")


def both_sector_robust(n: int = 4) -> LhvModel:
    """Robust model announcing in both sectors with half-filled analyzers.

    Full-support stations whose second hidden value flips the sign sequence
    on odd angles, with announcements keyed to the first-source value. Both
    sectors carry weight and record events at every tuple, yet the analyzer
    demands cannot be written as a sign product. Re-verified on build.
    """
    m = _check_grid(n)
    seq = _alternating_pair_signs(m)
    a = np.zeros((m, 2), np.int8)
    for k in range(m):
        a[k, 0] = seq[k]
        a[k, 1] = seq[k] if k % 2 == 0 else -seq[k]
    kappa = np.array([[1, 1], [-1, -1]], np.int8)
    model = _assemble_two_source(a, a.copy(), kappa, n)
    return _verified_robust(model, "both_sector_robust")


# ---------------------------------------------------------------------------
# shared-source family


def single_source_shift(n: int = 4) -> LhvModel:
    """Shared-source model shifting a half-plane sign pattern by the hidden value.

    Both stations respond with the sign of the shifted angle's half-plane
    (+1 on the first half of the circle, -1 on the second), and the analyzer
    is their pointwise product. Every device always fires. The construction
    looks like a factorized model with the hidden value shared, which is
    exactly why its two-source repackaging (see ``two_source_shell``) fails
    the independent-source consistency relations.
    """
    m = _check_grid(n)
    half = np.where(np.arange(m) < n, 1, -1).astype(np.int8)
    shifts = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    station = half[shifts]
    analyzer = station[:, None, :] * station[None, :, :]
    return _uniform_model(n, station, station, np.ones(m, np.int8), analyzer)


# bounded like the grid caches: each model keeps its cached event tables alive
@lru_cache(maxsize=2)
def single_source_efficient_50(n: int = 4) -> LhvModel:
    """Shared-source model with 50% station detectors and a perfect analyzer.

    Regenerates the witness the shift-lattice search finds at efficiency
    floor one half, then independently re-verifies it: the correlation law,
    counts, and relevance all hold, each station row fires for at least half
    the hidden values, and the analyzer fires for all of them. This is the
    escape hatch the two-source impossibility leaves open when one source is
    shared and detectors may stay silent.
    """
    space = SearchSpace(family=SINGLE_SOURCE, denominator=n, size1=4 * n)
    result = search_single_source(space, efficiency_floor=0.5)
    model = result.first_found
    if model is None:
        raise ZooError(
            f"the shift-lattice family offers no half-efficiency model at n={n}"
        )
    report = is_robust(model)
    if not report.is_robust:
        raise ZooError("search returned a model that fails re-verification")
    size = model.size1
    for name, table in (("first", model.a), ("last", model.d)):
        rate = min(
            np.count_nonzero(table[k]) / size for k in range(model.steps)
        )
        if rate < 0.5:
            raise ZooError(f"{name}-station firing rate {rate} fell below one half")
    if np.count_nonzero(model.analyzer == 0):
        raise ZooError("analyzer must fire for every hidden value")
    return model


def two_source_shell(model: LhvModel) -> LhvModel:
    """Repackage a shared-source model in the two-source table shape.

    The first source keeps the shared hidden value and the analyzer's
    dependence on it; the second source collapses to a singleton carrying
    the last station's response at hidden value 0, and the weights and
    ``n0`` are the input's. The shell is a container for the tables, not an
    equivalent model: scanning the independent-source consistency relations
    on it shows why the shared value cannot be factored apart.
    """
    if model.family != SINGLE_SOURCE:
        raise ZooError("only shared-source models can be wrapped in a shell")
    return LhvModel(
        family=TWO_SOURCE,
        n=model.n,
        a=model.a,
        d=model.d[:, :1],
        kappa=model.kappa[:, None],
        f_plus=model.f_plus[..., None],
        f_minus=model.f_minus[..., None],
        rho1=model.rho1,
        rho4=[Fraction(1)],
        n0=model.n0,
    )


# ---------------------------------------------------------------------------
# catalog and model references

_BUILDERS: dict[str, Callable[..., LhvModel]] = {
    "all_delta_one": all_delta_one,
    "synthetic_factorizable": synthetic_factorizable,
    "evasive_nonrobust": evasive_nonrobust,
    "padded_irrelevant": padded_irrelevant,
    "parity_split_robust": parity_split_robust,
    "both_sector_robust": both_sector_robust,
    "single_source_shift": single_source_shift,
    "single_source_efficient_50": single_source_efficient_50,
}


def catalog() -> dict[str, str]:
    """Catalog names with their one-line summaries, in stable order."""
    out: dict[str, str] = {}
    for name, builder in _BUILDERS.items():
        doc = inspect.getdoc(builder) or ""
        out[name] = doc.splitlines()[0] if doc else ""
    return out


def _coerce(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def by_uri(uri: str) -> LhvModel:
    """Build the model a ``zoo:<name>`` or ``zoo:<name>:<k>=<v>,...`` URI names."""
    if not uri.startswith("zoo:"):
        raise ZooError(f"not a zoo URI: {uri!r}")
    name, _, argpart = uri[len("zoo:"):].partition(":")
    builder = _BUILDERS.get(name)
    if builder is None:
        known = ", ".join(_BUILDERS)
        raise ZooError(f"unknown zoo model {name!r}; known models: {known}")
    kwargs = {}
    for piece in filter(None, argpart.split(",")):
        key, sep, value = piece.partition("=")
        if not sep or not key:
            raise ZooError(f"malformed argument {piece!r}; expected key=value")
        if key in kwargs:
            raise ZooError(f"repeated argument {key!r} for {name}")
        kwargs[key] = _coerce(value)
    try:
        bound = inspect.signature(builder).bind(**kwargs)
    except TypeError as exc:
        raise ZooError(f"bad arguments for {name}: {exc}") from exc
    return builder(*bound.args, **bound.kwargs)


def resolve(reference: str) -> LhvModel:
    """Load a model from a ``zoo:`` URI or from a file path."""
    if reference.startswith("zoo:"):
        return by_uri(reference)
    return load(reference)
