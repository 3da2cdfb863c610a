"""Two-source entanglement swapping: quantum predictions against finite
deterministic local-hidden-variable models with inefficient detectors.

The package computes the quantum predictions two independent ways, represents
local models exactly, checks the robustness conditions an experiment would
enforce, factorizes the sign structure of robust models, derives the
resulting contradiction with a replayable trace, certifies by exhaustive
search whether robust two-source models exist at small scale, and constructs
the single-source models that escape.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .angles import GridError, RationalAngle, UsageError
from .factorizer import (
    CounterexampleAlarm,
    FactorizeResult,
    FamilyError,
    check_consistency,
    factorize,
)
from .model import (
    LhvModel,
    ModelFormatError,
    SizeLimitError,
    classical_expectation,
    dumps,
    event_count,
    load,
    loads,
    save,
)
from .quantum import (
    expectation_bell,
    expectation_singlet,
    prob_closed,
    sector_probability,
    simulate,
    simulate_grid,
)
from .robustness import RobustnessReport, is_robust
from .search import (
    SearchResult,
    SearchSpace,
    search_single_source,
    search_two_source,
)
from .verdict import (
    ReplayError,
    Verdict,
    predict_E_class,
    replay,
    run as run_verdict,
    single_source_contradiction,
)
from .zoo import ZooError, by_uri, catalog, resolve

__all__ = [
    "CounterexampleAlarm",
    "FactorizeResult",
    "FamilyError",
    "GridError",
    "LhvModel",
    "ModelFormatError",
    "RationalAngle",
    "RobustnessReport",
    "SearchResult",
    "SearchSpace",
    "SizeLimitError",
    "UsageError",
    "Verdict",
    "ZooError",
    "by_uri",
    "catalog",
    "check_consistency",
    "classical_expectation",
    "dumps",
    "event_count",
    "expectation_bell",
    "expectation_singlet",
    "factorize",
    "is_robust",
    "load",
    "loads",
    "predict_E_class",
    "prob_closed",
    "replay",
    "ReplayError",
    "resolve",
    "run_verdict",
    "save",
    "search_single_source",
    "search_two_source",
    "sector_probability",
    "simulate",
    "simulate_grid",
    "single_source_contradiction",
    "__version__",
]
