"""Golden outputs: CLI reports and verdict traces pinned by sha256 digest.

The fixture ``golden_outputs.json`` holds, for a fixed script of CLI runs,
the exit code and the digest of standard output, and for a fixed set of
models the digest of a canonical JSON rendering of the verdict trace and
the factorization. Any change to a report byte, a witness, a recorded
event or an expectation table shows up as a digest mismatch.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.json
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from bellswap.cli import run as cli_run
from bellswap.factorizer import (
    build_components,
    factorize,
    merge_components,
    seed_component,
)
from bellswap.verdict import run as run_verdict
from bellswap.zoo import by_uri

from helpers import block_diagonal

FIXTURE = Path(__file__).with_name("golden_outputs.json")

ZOO_MODELS = (
    "zoo:all_delta_one",
    "zoo:evasive_nonrobust",
    "zoo:padded_irrelevant",
    "zoo:parity_split_robust",
    "zoo:both_sector_robust",
    "zoo:single_source_shift",
    "zoo:single_source_efficient_50",
)

SYNTHETIC_MODELS = (
    "zoo:synthetic_factorizable:seed=0",
    "zoo:synthetic_factorizable:seed=1,density=0.5,kappa=mixed",
    "zoo:synthetic_factorizable:seed=2,size1=3,size4=3,density=0.6,kappa=minus",
    "zoo:synthetic_factorizable:seed=3,size1=2,size4=3,density=0.4,kappa=mixed",
    "zoo:synthetic_factorizable:seed=4,n=6,density=0.7",
    "zoo:synthetic_factorizable:seed=5,n=6,size1=3,size4=3,density=0.5,kappa=mixed",
)

MODELS = ZOO_MODELS + SYNTHETIC_MODELS

# two factorizer components that the merge must align; the model is not
# robust, so its components are seeded and merged directly
TWO_BLOCKS = "block_diagonal([1, 1, -1, -1], u=(1, -1), v=(-1, 1))"


def cli_script() -> list[list[str]]:
    script = [
        ["quantum", "--phi", "2,1,1,2"],
        ["quantum", "--phi", "3,1,0,2", "--sector", "+"],
        ["quantum", "--phi", "5,0,3,1", "--n", "3", "--sector", "-"],
    ]
    for uri in MODELS:
        for command in ("check", "factorize", "verdict"):
            script.append([command, "--model", uri])
    # the sha256 fingerprint of dumps(model): the file layout is pinned
    for uri in MODELS:
        script.append(["zoo", "--model", uri])
    for floor in ("0.5", "1.0"):
        script.append(["search", "--family", "single_source", "--floor", floor])
    script.append(["selftest"])
    return script


def _plain(value):
    """JSON-ready form: dataclasses by compared field, dicts as ordered pairs."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return value


def trace_document(model) -> dict:
    """Canonical record of the verdict and the factorization of one model."""
    doc: dict = {}
    try:
        verdict = run_verdict(model)
    except Exception as exc:  # the error class is part of the record
        doc["verdict_error"] = f"{type(exc).__name__}: {exc}"
    else:
        witness = verdict.witness
        if witness is not None and not dataclasses.is_dataclass(witness):
            witness = str(witness)
        doc["verdict"] = {
            "kind": verdict.kind,
            "trace": _plain(verdict.trace),
            "report": _plain(verdict.report),
            "witness": _plain(witness),
        }
    try:
        result = factorize(model)
    except Exception as exc:
        doc["factorize_error"] = f"{type(exc).__name__}: {exc}"
    else:
        doc["factorize"] = _plain(result)
    return doc


def event_indices(trace) -> list:
    """Every hidden-variable index and event key a verdict trace records."""
    found = []
    for key, event in trace.rule.events.items():
        found.extend(key)
        found.extend(event)
    for step in trace.constant.midpoint_steps + trace.constant.ratio_steps:
        found.extend(step.phis)
        found.extend(step.event)
    found.extend(trace.clash.phis)
    found.extend(trace.clash.event)
    return found


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute_digests() -> dict:
    cli = {}
    for argv in cli_script():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(list(argv))
        cli[" ".join(argv)] = {"code": code, "stdout_sha256": _digest(out.getvalue())}
    docs = {uri: trace_document(by_uri(uri)) for uri in MODELS}
    blocks = block_diagonal([1, 1, -1, -1], u=(1, -1), v=(-1, 1))
    seeded = tuple(seed_component(blocks, c) for c in build_components(blocks))
    docs[TWO_BLOCKS] = _plain(
        {"seeded": seeded, "merged": merge_components(blocks, seeded)}
    )
    traces = {
        name: _digest(json.dumps(doc, sort_keys=True)) for name, doc in docs.items()
    }
    return {"cli": cli, "traces": traces}


def test_outputs_match_the_golden_digests():
    want = json.loads(FIXTURE.read_text())
    got = compute_digests()
    assert got["cli"].keys() == want["cli"].keys()
    for command, expected in want["cli"].items():
        assert got["cli"][command] == expected, command
    assert got["traces"] == want["traces"]


def test_recorded_event_indices_are_python_ints():
    checked = 0
    for uri in SYNTHETIC_MODELS:
        verdict = run_verdict(by_uri(uri))
        if verdict.kind != "inconsistent":
            continue
        indices = event_indices(verdict.trace)
        assert indices and all(type(i) is int for i in indices), uri
        checked += 1
    assert checked


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1, sort_keys=True))
