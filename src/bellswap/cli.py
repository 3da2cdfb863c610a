"""Command-line front end emitting deterministic structured-text reports.

Every subcommand prints one report to standard output: ``key: value`` lines
in a stable order, so identical inputs always produce identical bytes.
Timing goes to standard error only. Exit status is 0 for success (including
the expected inconsistency verdict), 1 for model-level failures such as a
robustness check rejecting its input or a derivation trace that does not
replay, and 2 for usage or schema errors. Any other exception is an internal
failure and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .angles import RationalAngle, UsageError, correlation_index
from .factorizer import ConsistencyWitness, FamilyError, factorize
from .model import (
    SINGLE_SOURCE,
    TWO_SOURCE,
    LhvModel,
    dumps,
    event_count,
    save,
)
from .quantum import (
    BELL_OUTCOMES,
    SECTOR_OUTCOMES,
    expectation_bell,
    prob_closed,
    sector_probability,
    simulate,
)
from .robustness import RobustnessReport, is_robust
from .search import SearchSpace, search_single_source, search_two_source
from .verdict import (
    ReplayError,
    replay,
    run as run_verdict,
    single_source_contradiction,
)
from .zoo import (
    all_delta_one,
    both_sector_robust,
    catalog,
    parity_split_robust,
    resolve,
    single_source_efficient_50,
    synthetic_factorizable,
)

__all__ = ["Report", "render", "run", "main"]

@dataclass(frozen=True)
class Report:
    """One deterministic report: inputs restate the run, payload the result."""

    command: str
    inputs: tuple[tuple[str, str], ...]
    payload: tuple[tuple[str, str], ...]
    summary: str
    version: str = __version__


def render(report: Report, quiet: bool = False) -> str:
    """Serialize a report as stable ``key: value`` lines (summary only if quiet)."""
    if quiet:
        return report.summary + "\n"
    lines = [f"command: {report.command}", f"version: {report.version}"]
    lines += [f"input.{key}: {value}" for key, value in report.inputs]
    lines += [f"{key}: {value}" for key, value in report.payload]
    lines.append(f"summary: {report.summary}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(item) for item in value)
    return str(value)


def _signs(vector: np.ndarray) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "." for s in vector)


def _model_lines(model: LhvModel) -> list[tuple[str, str]]:
    return [
        ("model.family", model.family),
        ("model.n", str(model.n)),
        ("model.size1", str(model.size1)),
        ("model.size4", str(model.size4)),
    ]


def _witness_lines(report: RobustnessReport) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if report.correlation_witness is not None:
        w = report.correlation_witness
        out.append((
            "witness.correlation",
            f"phis={_fmt(w.phis)} l1={w.l1} l4={_fmt(w.l4)}"
            f" expected={w.expected:+d} found={w.found:+d}",
        ))
    if report.counts_witness is not None:
        w = report.counts_witness
        out.append((
            "witness.counts",
            f"phis={_fmt(w.phis)} sector={w.sector:+d}",
        ))
    if report.relevance_witness is not None:
        w = report.relevance_witness
        out.append(("witness.relevance", f"side={w.side} index={w.index}"))
    return out


def _consistency_lines(w: ConsistencyWitness) -> list[tuple[str, str]]:
    indices = " ".join(f"{k}={v}" for k, v in w.indices.items())
    return [("witness.relation", w.relation), ("witness.indices", indices)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_quantum(args) -> tuple[int, Report]:
    steps = args.phi
    n = args.n
    angles = [RationalAngle(k, n) for k in steps]
    table = simulate(angles)
    closed = prob_closed(angles)
    delta = float(np.abs(table - closed).max())
    m = 2 * n
    payload: list[tuple[str, str]] = []
    for sector, name in ((1, "plus"), (-1, "minus")):
        c = correlation_index(*steps, sector, n)
        payload.append((f"zeta.{name}", f"{c}/{m} pi"))
    outcome = ("H", "V")
    for i, first in enumerate(outcome):
        for j, last in enumerate(outcome):
            for b, bell in enumerate(BELL_OUTCOMES):
                payload.append(
                    (f"P({first},{last},{bell})", _fmt(float(table[i, j, b])))
                )
    payload.append(("closed_form_max_delta", _fmt(delta)))
    sectors = {"+": (1,), "-": (-1,)}.get(args.sector, (1, -1))
    for sector in sectors:
        name = "plus" if sector == 1 else "minus"
        payload.append(
            (f"sector_probability.{name}", _fmt(sector_probability(table, sector)))
        )
    for b, bell in enumerate(BELL_OUTCOMES):
        if sectors != (1, -1) and bell not in SECTOR_OUTCOMES[sectors[0]]:
            continue
        payload.append((f"E.{bell}", _fmt(expectation_bell(table, bell))))
    zeta_plus = correlation_index(*steps, 1, n)
    summary = (
        f"16-outcome table at phi={_fmt(steps)}, zeta_plus={zeta_plus}/{m} pi;"
        f" closed-form delta {_fmt(delta)}"
    )
    inputs = [("phi", _fmt(steps)), ("n", str(n)), ("sector", args.sector or "both")]
    return 0, Report("quantum", tuple(inputs), tuple(payload), summary)


def _cmd_check(args) -> tuple[int, Report]:
    model = resolve(args.model)
    report = is_robust(model, require_both_sectors=args.require_both_sectors)
    checks = (
        ("correlations", report.perfect_correlations_ok),
        ("counts", report.counts_ok),
        ("relevance", report.relevance_ok),
    )
    payload = _model_lines(model)
    payload.extend((name, "ok" if ok else "violated") for name, ok in checks)
    payload.append(("robust", _fmt(report.is_robust)))
    payload.extend(_witness_lines(report))
    if report.is_robust:
        summary = "robust: all three checks hold"
        code = 0
    else:
        failed = [name for name, ok in checks if not ok]
        summary = "not robust: " + ", ".join(failed) + " failed"
        code = 1
    inputs = [
        ("model", args.model),
        ("require_both_sectors", _fmt(args.require_both_sectors)),
    ]
    return code, Report("check", tuple(inputs), tuple(payload), summary)


def _cmd_factorize(args) -> tuple[int, Report]:
    model = resolve(args.model)
    result = factorize(model)
    payload = _model_lines(model)
    payload.append(("status", result.status))
    if result.status == "ok":
        fact = result.factorization
        payload.append(("components", str(len(fact.components))))
        payload.append(("trace_steps", str(len(fact.trace))))
        payload.append(("signs.a", _signs(fact.a)))
        payload.append(("signs.u", _signs(fact.u)))
        payload.append(("signs.v", _signs(fact.v)))
        summary = (
            f"factorized into per-source signs across"
            f" {len(fact.components)} component(s)"
        )
        code = 0
    elif result.status == "consistency_violated":
        w = result.witness
        payload.extend(_consistency_lines(w))
        payload.append(("witness.product", f"{w.product:+d}"))
        summary = f"no factorization: {w.relation} evaluates to {w.product:+d}"
        code = 1
    else:
        payload.extend(_witness_lines(result.robustness))
        summary = "not robust: factorization preconditions fail"
        code = 1
    return code, Report(
        "factorize", (("model", args.model),), tuple(payload), summary
    )


def _cmd_verdict(args) -> tuple[int, Report]:
    model = resolve(args.model)
    verdict = run_verdict(model)
    payload = _model_lines(model)
    payload.append(("kind", verdict.kind))
    if verdict.kind == "inconsistent":
        trace = verdict.trace
        payload.append(("trace.sector", f"{trace.sector:+d}"))
        for sector in sorted(trace.rule.verified, reverse=True):
            name = "plus" if sector == 1 else "minus"
            payload.append(
                (f"trace.rule_verified.{name}", str(trace.rule.verified[sector]))
            )
        constant = trace.constant
        payload.append(("trace.constant.even_value", f"{constant.even_value:+d}"))
        payload.append(("trace.constant.odd_value", f"{constant.odd_value:+d}"))
        payload.append(("trace.constant.holds", _fmt(bool(constant.constant))))
        payload.append(
            ("trace.constant.midpoint_steps", str(len(constant.midpoint_steps)))
        )
        payload.append(("trace.constant.ratio_steps", str(len(constant.ratio_steps))))
        clash = trace.clash
        payload.append((
            "trace.clash",
            f"phis={_fmt(clash.phis)} sector={clash.sector:+d}"
            f" required={clash.required:+d} derived={clash.derived:+d}"
            f" event={_fmt(clash.event)}",
        ))
        replay(trace, model)  # raises ReplayError, which run() maps to exit 1
        payload.append(("trace.replay", "ok"))
        expectation = trace.expectation
        payload.append(
            ("expectation.all_plus_one", _fmt(bool(expectation.all_plus_one)))
        )
        payload.append(
            ("expectation.max_discrepancy", _fmt(float(expectation.max_discrepancy)))
        )
        summary = (
            f"inconsistent: derived sign clashes at phis={_fmt(clash.phis)}"
            " (replay ok)"
        )
        code = 0
    elif verdict.kind == "not_robust":
        payload.extend(_witness_lines(verdict.report))
        summary = "not robust: the derivation needs all three entry checks"
        code = 1
    else:
        w = verdict.witness
        if isinstance(w, ConsistencyWitness):
            payload.extend(_consistency_lines(w))
        else:
            payload.append(("witness.text", str(w)))
        summary = "alarm: the model escapes the factorized-sign dichotomy"
        code = 1
    return code, Report("verdict", (("model", args.model),), tuple(payload), summary)


def _cmd_search(args) -> tuple[int, Report]:
    inputs = [("family", args.family), ("n", str(args.n))]
    if args.family == SINGLE_SOURCE:
        space = SearchSpace(
            family=SINGLE_SOURCE,
            denominator=args.n,
            size1=4 * args.n,
            cursor=args.resume,
        )
        inputs.append(("floor", _fmt(args.floor)))
    else:
        space = SearchSpace(
            family=TWO_SOURCE,
            denominator=args.n,
            size1=args.size1,
            size4=args.size4,
            cursor=args.resume,
        )
        inputs.append(("size1", str(args.size1)))
        inputs.append(("size4", str(args.size4)))
    inputs.append(("resume", str(args.resume)))
    if args.budget is not None:
        inputs.append(("budget", _fmt(args.budget)))
    if args.stop_after is not None:
        inputs.append(("stop_after", str(args.stop_after)))
    if args.family == SINGLE_SOURCE:
        result = search_single_source(
            space,
            efficiency_floor=args.floor,
            budget_seconds=args.budget,
            stop_after=args.stop_after or 1,
        )
    else:
        result = search_two_source(
            space, budget_seconds=args.budget, stop_after=args.stop_after
        )
    payload: list[tuple[str, str]] = [
        ("models_examined", str(result.models_examined)),
        ("robust_count", str(result.robust_count)),
        ("robust_kept", str(len(result.robust_found))),
        ("consistent_kept", str(len(result.consistent_found))),
        ("completed", _fmt(result.completed)),
        ("certifying", _fmt(result.certifying)),
        ("truncated", _fmt(result.truncated)),
        ("cursor", str(result.cursor)),
    ]
    if result.notes:
        payload.append(("notes", result.notes))
    if result.first_found is not None:
        payload.extend(
            (f"first_found.{key.split('.', 1)[1]}", value)
            for key, value in _model_lines(result.first_found)
        )
        if args.out:
            save(result.first_found, args.out)
            payload.append(("saved", args.out))
    if result.certifying and result.robust_count == 0:
        summary = "no robust model exists in this space (complete enumeration)"
    elif result.completed and not result.certifying:
        found = (
            f"robust models found: {result.robust_count}"
            if result.robust_count else "no robust model found"
        )
        summary = f"{found} from cursor {space.cursor} on (resumed run, not certifying)"
    elif result.robust_count:
        qualifier = "complete" if result.certifying else "partial"
        summary = f"robust models found: {result.robust_count} ({qualifier} run)"
    else:
        summary = "no robust model found (enumeration incomplete)"
    return 0, Report("search", tuple(inputs), tuple(payload), summary)


def _cmd_zoo(args) -> tuple[int, Report]:
    if args.model is None:
        payload = tuple(
            (f"model.{name}", summary) for name, summary in catalog().items()
        )
        summary = f"{len(payload)} catalog models available"
        return 0, Report("zoo", (("list", "yes"),), payload, summary)
    model = resolve(args.model)
    payload = _model_lines(model)
    payload.append(("model.n0", str(model.n0)))
    digest = hashlib.sha256(dumps(model).encode()).hexdigest()
    payload.append(("fingerprint", digest))
    if args.out:
        save(model, args.out)
        payload.append(("saved", args.out))
        summary = f"model written to {args.out}"
    else:
        summary = f"model {args.model}: fingerprint {digest[:12]}"
    return 0, Report("zoo", (("model", args.model),), tuple(payload), summary)


def _selftest_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    angles = [RationalAngle(k, 4) for k in (2, 1, 1, 2)]
    table = simulate(angles)
    closed = prob_closed(angles)
    checks.append(
        ("quantum_oracles_agree", bool(np.abs(table - closed).max() < 1e-12))
    )
    checks.append(
        ("quantum_sector_half", abs(sector_probability(table, 1) - 0.5) < 1e-12)
    )

    reference = all_delta_one()
    half = Fraction(reference.n0, 2)
    checks.append(
        (
            "count_law_reference",
            all(
                event_count(reference, phis, 1) == half
                for phis in ((0, 0, 0, 0), (1, 2, 3, 4))
            ),
        )
    )

    checks.append(
        (
            "factorization_round_trip",
            factorize(synthetic_factorizable(0, density=0.7)).status == "ok",
        )
    )

    verdict = run_verdict(synthetic_factorizable(1, density=0.7))
    checks.append(
        (
            "derivation_clash_replays",
            verdict.kind == "inconsistent"
            and replay(verdict.trace, synthetic_factorizable(1, density=0.7)),
        )
    )

    robust_pair_ok = True
    for build in (parity_split_robust, both_sector_robust):
        model = build()
        robust_pair_ok &= is_robust(model).is_robust
        robust_pair_ok &= factorize(model).status == "consistency_violated"
    checks.append(("robust_unfactorizable_pair", robust_pair_ok))

    tiny = search_two_source(
        SearchSpace(family=TWO_SOURCE, denominator=4, size1=1, size4=1)
    )
    checks.append(
        ("minimal_two_source_space_empty", tiny.certifying and tiny.robust_count == 0)
    )

    escape = single_source_efficient_50()
    checks.append(("single_source_escape_robust", is_robust(escape).is_robust))

    certificate = single_source_contradiction(4)
    checks.append(
        ("single_source_full_efficiency_closed", certificate.all_contradicted)
    )
    return checks


def _cmd_selftest(args) -> tuple[int, Report]:
    checks = _selftest_checks()
    payload = tuple(
        (f"check.{name}", "pass" if ok else "FAIL") for name, ok in checks
    )
    passed = sum(ok for _, ok in checks)
    summary = f"{passed}/{len(checks)} checks passed"
    code = 0 if passed == len(checks) else 1
    return code, Report("selftest", (), payload, summary)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_phi(text: str) -> tuple[int, ...]:
    try:
        steps = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers, got {text!r}"
        ) from exc
    if len(steps) != 4:
        raise argparse.ArgumentTypeError(
            f"expected exactly four angle steps, got {len(steps)}"
        )
    return steps


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellswap",
        description=(
            "Quantum predictions and finite local-model analysis for the"
            " two-source entanglement-swapping experiment."
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the one-line summary"
    )
    # Accept --quiet after the subcommand as well; SUPPRESS keeps a trailing
    # default from clobbering a flag given before the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print only the one-line summary",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    quantum = sub.add_parser(
        "quantum",
        help="probability table and correlations for one setting",
        parents=[common],
    )
    quantum.add_argument("--phi", type=_parse_phi, required=True,
                         metavar="k1,k2,k3,k4")
    quantum.add_argument("--n", type=_positive_int, default=4,
                         help="grid denominator (angles are multiples of pi/n)")
    quantum.add_argument("--sector", choices=["+", "-"], default=None,
                         help="restrict sector-conditioned lines to one sector")
    quantum.set_defaults(handler=_cmd_quantum)

    check = sub.add_parser(
        "check", help="run the three robustness checks", parents=[common]
    )
    check.add_argument("--model", required=True,
                       help="model file path or zoo:<name>[:k=v,...] reference")
    check.add_argument("--require-both-sectors", action="store_true")
    check.set_defaults(handler=_cmd_check)

    fact = sub.add_parser(
        "factorize", help="recover per-source signs", parents=[common]
    )
    fact.add_argument("--model", required=True)
    fact.set_defaults(handler=_cmd_factorize)

    verdict = sub.add_parser(
        "verdict", help="full pipeline: factorize, derive, clash", parents=[common]
    )
    verdict.add_argument("--model", required=True)
    verdict.set_defaults(handler=_cmd_verdict)

    search = sub.add_parser(
        "search", help="enumerate model spaces", parents=[common]
    )
    search.add_argument("--family", choices=[TWO_SOURCE, SINGLE_SOURCE],
                        default=TWO_SOURCE)
    search.add_argument("--n", type=_positive_int, default=4)
    search.add_argument("--size1", type=_positive_int, default=1)
    search.add_argument("--size4", type=_positive_int, default=1)
    search.add_argument("--floor", type=float, default=0.5,
                        help="single-source per-station efficiency floor")
    search.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds")
    search.add_argument("--resume", type=int, default=0,
                        help="cursor from a previous partial run")
    search.add_argument("--stop-after", type=_positive_int, default=None,
                        help="stop once this many robust models are counted")
    search.add_argument("--out", default=None,
                        help="write the first found model to this file")
    search.set_defaults(handler=_cmd_search)

    zoo = sub.add_parser(
        "zoo", help="list catalog models or emit one", parents=[common]
    )
    zoo.add_argument("--model", default=None,
                     help="zoo reference to build (default: list the catalog)")
    zoo.add_argument("--out", default=None, help="write the model to this file")
    zoo.set_defaults(handler=_cmd_zoo)

    selftest = sub.add_parser(
        "selftest", help="run the built-in verification battery", parents=[common]
    )
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves no state on the parser
    return build_parser()


def run(argv=None) -> int:
    """Parse arguments, execute one subcommand, print its report; return status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        code, report = args.handler(args)
    except ReplayError as exc:  # an internal failure, not a usage error
        print(f"error: replay failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, FamilyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(report, quiet=args.quiet))
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
