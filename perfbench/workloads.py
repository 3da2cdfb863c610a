"""The four benchmark workloads: inputs from a seed, items, output checks.

A workload is built from its seed alone (building it is the set-up that
``setup_s`` measures) and then offers a fixed list of items. The worker
runs every item once per pass: ``prepare`` (untimed) hands the item's
input to ``run`` (timed), and ``check`` (untimed) compares the output with
what the input was built to produce. ``check`` returns the outcome kind
and an error message, or None when the output is right.

Only generated inputs reach bellswap: seeds, zoo arguments, JSON text and
command lines. Every input set is stratified, so the seed changes which
models are drawn but not how many of each kind, which keeps per-item
latency distributions comparable across seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from pathlib import Path

import numpy as np

import bellswap
from bellswap import zoo

KAPPAS = ("plus", "minus", "mixed")


@dataclasses.dataclass
class Item:
    label: str
    group: str
    payload: object
    expected: object = None


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _density(rng: np.random.Generator, low: float, high: float) -> float:
    return round(float(rng.uniform(low, high)), 2)


class Workload:
    """Defaults shared by the workloads; each sets ``name`` and ``items``."""

    name = ""
    items: list[Item]
    extra: dict = {}

    def warmup_items(self) -> list[Item]:
        return self.items

    def prepare(self, item: Item):
        return item.payload


class Census(Workload):
    """Two-source 2x2 census from cursor 2,304,000 to the end.

    That slice is sector maps 10-15 in the documented enumeration order:
    five mixed-sector maps, dominated by the Python prune loop, and the
    all-minus map, dominated by the numpy survivor scan. The space is
    fixed, so the seed is ignored.
    """

    name = "census"
    CURSOR = 2_304_000
    ROBUST_COUNT = 204_800

    def __init__(self, seed: int, workdir: Path) -> None:
        space = bellswap.SearchSpace(
            family="two_source", denominator=4, size1=2, size4=2, cursor=self.CURSOR
        )
        self.items = [Item("sector maps 10-15", "slice", space)]

    def warmup_items(self) -> list[Item]:
        return []

    def run(self, space):
        return bellswap.search_two_source(space)

    def check(self, item: Item, result):
        self.extra = {
            "models_examined": result.models_examined,
            "robust_count": result.robust_count,
            "robust_kept": len(result.robust_found),
        }
        if not result.completed:
            return None, "the census slice did not complete"
        if result.robust_count != self.ROBUST_COUNT:
            return None, f"robust_count {result.robust_count} != {self.ROBUST_COUNT}"
        for index, model in enumerate(result.robust_found):
            if not bellswap.is_robust(model).is_robust:
                return None, f"kept survivor {index} fails is_robust"
        return None, None


class VerdictBatch(Workload):
    """Factorizable models through ``run_verdict`` then ``replay``.

    72 models: per kappa (plus, minus, mixed), 8 at n=4 2x2, 8 at n=4
    3x3, 3 at n=4 4x4 and 5 at n=6 2x2, each with a seeded model seed and
    density 0.4, 0.7 and 1.0 in turn. Density moves a model's latency by
    up to a third, so it is fixed rather than drawn: the seed then varies
    the models without moving the latency distribution much. The
    counts put the median inside the 3x3 plus/minus cluster and the tail
    inside the n=6 plus/minus cluster, so neither sits on the edge between
    two latency clusters, where the seed alone would move it.
    """

    name = "verdict_batch"
    COUNTS = {(4, 2): 8, (4, 3): 8, (4, 4): 3, (6, 2): 5}
    DENSITIES = (0.4, 0.7, 1.0)

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.items = []
        for (n, size), count in self.COUNTS.items():
            for kappa in KAPPAS:
                for index in range(count):
                    model_seed = _draw_seed(rng)
                    density = self.DENSITIES[index % len(self.DENSITIES)]
                    model = zoo.synthetic_factorizable(
                        model_seed, n=n, size1=size, size4=size,
                        density=density, kappa=kappa,
                    )
                    label = f"seed={model_seed},n={n},size={size},density={density},kappa={kappa}"
                    self.items.append(Item(label, f"n{n}-{size}x{size}", model))

    def warmup_items(self) -> list[Item]:
        # one item per grid/size group fills the lru caches of sign tables
        seen: dict[str, Item] = {}
        for item in self.items:
            seen.setdefault(item.group, item)
        return list(seen.values())

    def prepare(self, item: Item):
        # a fresh, equal model object per run, so nothing a model caches on
        # itself survives from one pass to the next
        return dataclasses.replace(item.payload)

    def run(self, model):
        verdict = bellswap.run_verdict(model)
        replayed = verdict.kind == "inconsistent" and bellswap.replay(verdict.trace, model)
        return verdict.kind, replayed

    def check(self, item: Item, output):
        kind, replayed = output
        if kind != "inconsistent":
            return kind, f"verdict {kind}, expected inconsistent"
        if replayed is not True:
            return kind, "replay did not return True"
        return kind, None


def _relabel(model, swap1: bool, swap4: bool, gauge1, gauge4):
    """The same model with hidden values permuted and sign-gauged per value."""
    order1 = [1, 0] if swap1 else [0, 1]
    order4 = [1, 0] if swap4 else [0, 1]
    g1 = np.array(gauge1, np.int8)
    g4 = np.array(gauge4, np.int8)
    gauge_f = g1[:, None] * g4[None, :]

    def analyzer(table):
        return table[:, :, order1][:, :, :, order4] * gauge_f

    return dataclasses.replace(
        model,
        a=model.a[:, order1] * g1,
        d=model.d[:, order4] * g4,
        kappa=model.kappa[order1][:, order4],
        f_plus=analyzer(model.f_plus),
        f_minus=analyzer(model.f_minus),
    )


class Screen(Workload):
    """JSON models through the robustness gate, then the verdict if they pass.

    200 items per pass: 130 not robust (a hidden value's station responses
    zeroed, a station sign flipped at full density, ``evasive_nonrobust``,
    ``padded_irrelevant``), 40 alarms (hidden-value relabellings of the two
    robust non-factorizable zoo models) and 30 factorizable models, which
    end inconsistent and are replayed.
    """

    name = "screen"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        entries: list[tuple[str, str, object, str]] = []
        for index in range(50):
            model = zoo.synthetic_factorizable(
                _draw_seed(rng), density=_density(rng, 0.5, 1.0), kappa=KAPPAS[index % 3]
            )
            column = int(rng.integers(0, 2))
            side = "a" if index % 2 == 0 else "d"
            table = np.array(getattr(model, side))
            table[:, column] = 0
            entries.append(("not_robust", "zeroed", dataclasses.replace(model, **{side: table}),
                            f"zeroed {side}[:, {column}]"))
        for index in range(50):
            model = zoo.synthetic_factorizable(_draw_seed(rng), density=1.0, kappa=KAPPAS[index % 3])
            side = "a" if index % 2 == 0 else "d"
            row, column = int(rng.integers(0, 8)), int(rng.integers(0, 2))
            table = np.array(getattr(model, side))
            table[row, column] *= -1
            entries.append(("not_robust", "flipped", dataclasses.replace(model, **{side: table}),
                            f"flipped {side}[{row}, {column}]"))
        for index in range(15):
            n = (4, 6)[index % 2]
            entries.append(("not_robust", "evasive", zoo.evasive_nonrobust(n), f"evasive n={n}"))
        padded = zoo.padded_irrelevant(4)
        for _ in range(15):
            entries.append(("not_robust", "padded", padded, "padded_irrelevant"))
        bases = (("parity_split", zoo.parity_split_robust(4)), ("both_sector", zoo.both_sector_robust(4)))
        for index in range(40):
            base_name, base = bases[index % 2]
            swap1, swap4 = (bool(b) for b in rng.integers(0, 2, size=2))
            gauge1, gauge4 = (1 - 2 * rng.integers(0, 2, size=(2, 2))).tolist()
            entries.append(("alarm", "alarm", _relabel(base, swap1, swap4, gauge1, gauge4),
                            f"{base_name} swap={int(swap1)}{int(swap4)} gauge={gauge1}{gauge4}"))
        for index in range(30):
            model_seed = _draw_seed(rng)
            density = _density(rng, 0.3, 1.0)
            model = zoo.synthetic_factorizable(model_seed, density=density, kappa=KAPPAS[index % 3])
            entries.append(("inconsistent", "factorizable", model,
                            f"seed={model_seed},density={density},kappa={KAPPAS[index % 3]}"))
        order = rng.permutation(len(entries))
        self.items = [
            Item(entries[i][3], entries[i][1], bellswap.dumps(entries[i][2]), entries[i][0])
            for i in order
        ]

    def run(self, text: str):
        model = bellswap.loads(text)
        if not bellswap.is_robust(model, minus_row=False).is_robust:
            return "not_robust", None
        verdict = bellswap.run_verdict(model)
        replayed = verdict.kind == "inconsistent" and bellswap.replay(verdict.trace, model)
        return verdict.kind, replayed

    def check(self, item: Item, output):
        kind, replayed = output
        if kind != item.expected:
            return kind, f"kind {kind}, built to be {item.expected}"
        if kind == "inconsistent" and replayed is not True:
            return kind, "replay did not return True"
        return kind, None


class CliSession(Workload):
    """A seeded script of ``bellswap.cli.run`` calls in one process.

    66 commands per pass: ``quantum`` on seeded tuples (10 at n=4, 6 at
    n=6), ``check``, ``factorize`` and ``verdict`` on seeded zoo URIs and on
    JSON files written at set-up, ``zoo``, single-source ``search`` and
    ``selftest``. Expected exit codes follow the documented contract; the
    stdout of every command must repeat byte for byte after the warm-up.
    """

    name = "cli_session"

    def __init__(self, seed: int, workdir: Path) -> None:
        from bellswap import cli

        # looked up at call time, so a traced run sees the wrapped cli.run
        self._cli = cli
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)

        def synthetic_uri(index: int) -> str:
            return (
                f"zoo:synthetic_factorizable:seed={_draw_seed(rng)},"
                f"density={_density(rng, 0.3, 1.0)},kappa={KAPPAS[index % 3]}"
            )

        def saved(index: int) -> str:
            model = bellswap.by_uri(synthetic_uri(index))
            path = workdir / f"synthetic_{index}.json"
            bellswap.save(model, path)
            return str(path)

        robust_file = workdir / "parity_split_robust.json"
        bellswap.save(zoo.parity_split_robust(4), robust_file)
        files = [saved(i) for i in range(6)]

        script: list[tuple[list[str], int, str]] = []
        for index in range(16):
            n = 4 if index < 10 else 6
            phi = ",".join(str(int(k)) for k in rng.integers(0, 2 * n, size=4))
            argv = ["quantum", "--phi", phi, "--n", str(n)]
            sector = (None, "+", "-")[index % 3]
            if sector:
                argv += ["--sector", sector]
            script.append((argv, 0, "quantum"))
        for index in range(4):
            script.append((["check", "--model", synthetic_uri(index)], 1, "check"))
        for path in files[:2]:
            script.append((["check", "--model", path], 1, "check"))
        for reference, code in (
            ("zoo:parity_split_robust", 0),
            ("zoo:both_sector_robust", 0),
            ("zoo:evasive_nonrobust", 1),
            (str(robust_file), 0),
        ):
            script.append((["check", "--model", reference], code, "check"))
        for index in range(5):
            script.append((["factorize", "--model", synthetic_uri(index)], 0, "factorize"))
        for path in files[2:5]:
            script.append((["factorize", "--model", path], 0, "factorize"))
        for reference in ("zoo:parity_split_robust", "zoo:both_sector_robust"):
            script.append((["factorize", "--model", reference], 1, "factorize"))
        # 18 synthetic verdicts, the slowest commands after selftest and one
        # search, so the tail (11th slowest) falls inside their cluster
        for index in range(12):
            script.append((["verdict", "--model", synthetic_uri(index)], 0, "verdict"))
        for path in files:
            script.append((["verdict", "--model", path], 0, "verdict"))
        for reference in ("zoo:padded_irrelevant", "zoo:both_sector_robust", str(robust_file)):
            script.append((["verdict", "--model", reference], 1, "verdict"))
        script.append((["zoo"], 0, "zoo"))
        for index in range(3):
            script.append((["zoo", "--model", synthetic_uri(index)], 0, "zoo"))
        for reference in ("zoo:single_source_shift", "zoo:all_delta_one"):
            script.append((["zoo", "--model", reference], 0, "zoo"))
        for floor in ("0.5", "1.0"):
            script.append((["search", "--family", "single_source", "--floor", floor], 0, "search"))
        script.append((["selftest"], 0, "selftest"))

        order = rng.permutation(len(script))
        self.items = [
            Item(" ".join(script[i][0]), script[i][2], script[i][0], script[i][1]) for i in order
        ]
        self.reference: dict[int, str] = {}

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.run(list(argv))
        return code, out.getvalue()

    def check(self, item: Item, output):
        code, stdout = output
        kind = None
        if item.group == "verdict":
            kind = next(
                (line[len("kind: "):] for line in stdout.splitlines() if line.startswith("kind: ")),
                None,
            )
        if code != item.expected:
            return kind, f"exit code {code}, expected {item.expected}"
        reference = self.reference.setdefault(id(item), stdout)
        if stdout != reference:
            return kind, "stdout differs from the warm-up pass"
        if item.group == "selftest" and "summary: 9/9 checks passed" not in stdout:
            return kind, "selftest did not pass 9/9"
        return kind, None


WORKLOADS = {cls.name: cls for cls in (Census, VerdictBatch, Screen, CliSession)}
