"""End-to-end command-line runs over catalog models only."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellswap
from bellswap import cli, factorizer, model, robustness, search, verdict, zoo
from bellswap.cli import run
from bellswap.verdict import ReplayError
from bellswap.zoo import all_delta_one


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in report:\n{out}")


class TestQuantum:
    def test_probability_table_at_the_balanced_setting(self, capsys):
        code, out, _ = invoke(capsys, "quantum", "--phi", "2,1,1,2", "--n", "4")
        assert code == 0
        assert payload_value(out, "P(H,H,phi_plus)") == "0.125"
        assert payload_value(out, "zeta.plus") == "0/8 pi"
        assert float(payload_value(out, "closed_form_max_delta")) < 1e-12
        assert float(payload_value(out, "sector_probability.plus")) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_sector_filter_drops_the_other_sector(self, capsys):
        code, out, _ = invoke(capsys, "quantum", "--phi", "0,0,0,0", "--sector", "+")
        assert code == 0
        assert "sector_probability.plus:" in out
        assert "sector_probability.minus:" not in out
        assert "E.psi_minus:" in out
        assert "E.phi_minus:" not in out

    def test_inputs_are_replayable(self, capsys):
        _, out, _ = invoke(capsys, "quantum", "--phi", "3,1,0,2", "--n", "4")
        assert payload_value(out, "input.phi") == "3,1,0,2"
        assert payload_value(out, "input.n") == "4"

    def test_malformed_phi_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "quantum", "--phi", "1,2,3")
        assert code == 2
        assert not out

    def test_quiet_prints_only_the_summary(self, capsys):
        code, out, _ = invoke(capsys, "--quiet", "quantum", "--phi", "2,1,1,2")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_quiet_works_after_the_subcommand_too(self, capsys):
        before = invoke(capsys, "--quiet", "quantum", "--phi", "2,1,1,2")
        after = invoke(capsys, "quantum", "--phi", "2,1,1,2", "--quiet")
        # exit code and stdout must match; stderr holds only the run time
        assert after[:2] == before[:2]
        assert after[0] == 0
        for _, _, err in (before, after):
            assert re.fullmatch(r"elapsed: \d+\.\d+s\n", err)

    def test_the_parser_keeps_no_state_between_commands(self, capsys):
        # run reuses one parser per process: a trailing --quiet and a usage
        # error must not leak into the commands after them
        script = [
            ["quantum", "--phi", "2,1,1,2", "--quiet"],
            ["quantum", "--phi", "2,1,1,2"],
            ["quantum", "--phi", "1,2,3"],
            ["zoo"],
        ]
        fresh = []
        for argv in script:
            cli._parser.cache_clear()
            fresh.append(invoke(capsys, *argv)[:2])
        reused = [invoke(capsys, *argv)[:2] for argv in script]
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 0, 2, 0]
        assert len(reused[0][1].splitlines()) == 1 < len(reused[1][1].splitlines())
        assert reused[2][1] == ""


class TestCheck:
    def test_evasive_model_fails_counts(self, capsys):
        code, out, _ = invoke(capsys, "check", "--model", "zoo:evasive_nonrobust")
        assert code == 1
        assert payload_value(out, "counts") == "violated"
        assert payload_value(out, "witness.counts") == "phis=0,0,0,1 sector=+1"

    def test_robust_model_passes(self, capsys):
        code, out, _ = invoke(capsys, "check", "--model", "zoo:parity_split_robust")
        assert code == 0
        assert payload_value(out, "robust") == "yes"

    def test_both_sector_flag_raises_the_bar(self, capsys):
        code, out, _ = invoke(
            capsys,
            "check",
            "--model",
            "zoo:parity_split_robust",
            "--require-both-sectors",
        )
        assert code == 1
        assert "sector=-1" in payload_value(out, "witness.counts")

    def test_unknown_model_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "check", "--model", "zoo:nonexistent")
        assert code == 2
        assert not out
        assert "error:" in err

    @pytest.mark.parametrize("field", ["n", "n0", "lambda1", "lambda4"])
    def test_boolean_size_field_is_a_usage_error(self, capsys, tmp_path, field):
        doc = json.loads(bellswap.dumps(all_delta_one(n=1, size1=1, size4=1)))
        doc[field] = True
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--model", str(path))
        assert code == 2
        assert not out
        assert f"{field}:" in err

    @pytest.mark.parametrize("value", [300, 0.5, True, "1"], ids=repr)
    def test_bad_table_entry_is_a_usage_error(self, capsys, tmp_path, value):
        doc = json.loads(bellswap.dumps(all_delta_one(n=1, size1=1, size4=1)))
        doc["A"][0][0] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "check", "--model", str(path))
        assert code == 2
        assert not out
        assert len(err.splitlines()) == 1 and "A: values must" in err

    def test_binary_model_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        code, out, err = invoke(capsys, "check", "--model", str(path))
        assert code == 2
        assert not out
        assert "document: not text" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        uri = "zoo:synthetic_factorizable:seed=-1"
        code, out, err = invoke(capsys, "check", "--model", uri)
        assert code == 2
        assert not out
        assert "seed must be a nonnegative integer" in err

    @pytest.mark.parametrize("uri", [
        "zoo:synthetic_factorizable:seed=1,size1=a",
        "zoo:synthetic_factorizable:seed=1,size1=2.5",
        "zoo:synthetic_factorizable:seed=1,density=x",
        "zoo:synthetic_factorizable:seed=2.5",
        "zoo:synthetic_factorizable:seed=x",
        "zoo:synthetic_factorizable:seed=1,bogus=1",
        "zoo:synthetic_factorizable:seed=1,kappa=7",
        "zoo:all_delta_one:size4=b",
        "zoo:single_source_efficient_50:n=x",
        "zoo:single_source_efficient_50:n=2.5",
    ])
    def test_wrongly_typed_zoo_argument_is_a_usage_error(self, capsys, uri):
        code, out, err = invoke(capsys, "check", "--model", uri)
        assert code == 2
        assert not out
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestFactorize:
    def test_product_model_recovers_signs(self, capsys):
        code, out, _ = invoke(
            capsys, "factorize", "--model", "zoo:synthetic_factorizable:seed=1"
        )
        assert code == 0
        assert payload_value(out, "status") == "ok"
        assert payload_value(out, "components") == "1"
        assert set(payload_value(out, "signs.a")) <= {"+", "-"}

    def test_robust_nonfactorizable_model_reports_the_relation(self, capsys):
        code, out, _ = invoke(
            capsys, "factorize", "--model", "zoo:parity_split_robust"
        )
        assert code == 1
        assert payload_value(out, "status") == "consistency_violated"
        assert payload_value(out, "witness.product") == "-1"

    def test_nonrobust_model_is_turned_away(self, capsys):
        code, out, _ = invoke(capsys, "factorize", "--model", "zoo:evasive_nonrobust")
        assert code == 1
        assert payload_value(out, "status") == "not_robust"

    def test_shared_source_family_is_a_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "factorize", "--model", "zoo:single_source_shift"
        )
        assert code == 2
        assert "two independent sources" in err


class TestVerdict:
    def test_factorizable_model_reaches_the_clash(self, capsys):
        code, out, _ = invoke(
            capsys, "verdict", "--model", "zoo:synthetic_factorizable:seed=1"
        )
        assert code == 0
        assert payload_value(out, "kind") == "inconsistent"
        assert payload_value(out, "trace.replay") == "ok"
        clash = payload_value(out, "trace.clash")
        assert "required=-1" in clash and "derived=+1" in clash
        assert payload_value(out, "expectation.all_plus_one") == "yes"

    def test_robust_nonfactorizable_model_raises_the_alarm(self, capsys):
        code, out, _ = invoke(capsys, "verdict", "--model", "zoo:parity_split_robust")
        assert code == 1
        assert payload_value(out, "kind") == "alarm"
        assert "witness.relation" in out

    def test_nonrobust_model_stops_at_the_gate(self, capsys):
        code, out, _ = invoke(capsys, "verdict", "--model", "zoo:evasive_nonrobust")
        assert code == 1
        assert payload_value(out, "kind") == "not_robust"

    def test_replay_mismatch_is_a_model_failure(self, capsys, monkeypatch):
        def mismatch(trace, model):
            raise ReplayError("the recorded clash does not actually clash")

        monkeypatch.setattr(cli, "replay", mismatch)
        code, out, err = invoke(
            capsys, "verdict", "--model", "zoo:synthetic_factorizable:seed=1"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: replay failed: the recorded clash does not actually clash\n"
        )


class TestSearch:
    def test_minimal_two_source_space_is_certified_empty(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "--family", "two_source", "--size1", "1", "--size4", "1"
        )
        assert code == 0
        assert payload_value(out, "models_examined") == "32768"
        assert payload_value(out, "robust_count") == "0"
        assert payload_value(out, "certifying") == "yes"
        assert "complete enumeration" in payload_value(out, "summary")

    def test_single_source_witness_is_saved_and_checks_out(self, capsys, tmp_path):
        path = str(tmp_path / "witness.json")
        code, out, _ = invoke(
            capsys,
            "search",
            "--family",
            "single_source",
            "--floor",
            "0.5",
            "--out",
            path,
        )
        assert code == 0
        assert payload_value(out, "robust_count") == "1"
        assert payload_value(out, "saved") == path
        code, out, _ = invoke(capsys, "check", "--model", path)
        assert code == 0
        assert payload_value(out, "robust") == "yes"

    def test_single_source_full_efficiency_finds_nothing(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "--family", "single_source", "--floor", "1.0"
        )
        assert code == 0
        assert payload_value(out, "robust_count") == "0"
        assert payload_value(out, "certifying") == "yes"

    def test_resuming_past_the_end_examines_nothing(self, capsys):
        code, out, _ = invoke(
            capsys,
            "search",
            "--family",
            "two_source",
            "--size1",
            "1",
            "--size4",
            "1",
            "--resume",
            "256",
        )
        assert code == 0
        assert payload_value(out, "models_examined") == "0"
        assert payload_value(out, "completed") == "yes"

    def test_resumed_run_certifies_nothing(self, capsys):
        # the 16 robust models of this space all lie before block 1500
        code, out, _ = invoke(
            capsys, "search", "--family", "two_source", "--size1", "1",
            "--size4", "2", "--resume", "1500",
        )
        assert code == 0
        assert payload_value(out, "robust_count") == "0"
        assert payload_value(out, "completed") == "yes"
        assert payload_value(out, "certifying") == "no"
        assert "complete enumeration" not in payload_value(out, "summary")

    @pytest.mark.parametrize(
        "resume, found",
        [("1", "robust models found: 12"), ("1500", "no robust model found")],
    )
    def test_resumed_summary_says_resumed_not_complete(self, capsys, resume, found):
        code, out, _ = invoke(
            capsys, "search", "--family", "two_source", "--size1", "1",
            "--size4", "2", "--resume", resume,
        )
        assert code == 0
        assert payload_value(out, "completed") == "yes"
        assert payload_value(out, "certifying") == "no"
        assert payload_value(out, "summary") == (
            f"{found} from cursor {resume} on (resumed run, not certifying)"
        )

    @pytest.mark.parametrize("family", ["two_source", "single_source"])
    @pytest.mark.parametrize(
        "limit", [("--stop-after", "0"), ("--stop-after", "-3"),
                  ("--budget", "nan"), ("--budget", "inf"), ("--budget", "-1")],
    )
    def test_bad_search_limits_are_usage_errors(self, capsys, family, limit):
        code, out, err = invoke(capsys, "search", "--family", family, *limit)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_oversized_space_is_a_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "search", "--family", "two_source", "--size1", "3"
        )
        assert code == 2
        assert "error:" in err


class TestZoo:
    def test_listing_names_every_catalog_model(self, capsys):
        code, out, _ = invoke(capsys, "zoo")
        assert code == 0
        names = [
            line.split(":", 1)[0].removeprefix("model.")
            for line in out.splitlines()
            if line.startswith("model.")
        ]
        assert names == [
            "all_delta_one",
            "synthetic_factorizable",
            "evasive_nonrobust",
            "padded_irrelevant",
            "parity_split_robust",
            "both_sector_robust",
            "single_source_shift",
            "single_source_efficient_50",
        ]

    def test_emitting_a_model_file(self, capsys, tmp_path):
        path = str(tmp_path / "model.json")
        code, out, _ = invoke(
            capsys, "zoo", "--model", "zoo:both_sector_robust", "--out", path
        )
        assert code == 0
        assert payload_value(out, "saved") == path
        code, out, _ = invoke(capsys, "check", "--model", path)
        assert code == 0

    def test_fingerprint_is_stable(self, capsys):
        first = invoke(capsys, "zoo", "--model", "zoo:all_delta_one")[1]
        second = invoke(capsys, "zoo", "--model", "zoo:all_delta_one")[1]
        assert payload_value(first, "fingerprint") == payload_value(
            second, "fingerprint"
        )

    def test_unknown_reference_is_a_usage_error(self, capsys):
        code, _, err = invoke(capsys, "zoo", "--model", "zoo:unheard_of")
        assert code == 2
        assert "error:" in err


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = invoke(capsys, "selftest")
        assert code == 0
        checks = [line for line in out.splitlines() if line.startswith("check.")]
        assert checks and all(line.endswith("pass") for line in checks)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["bellswap", "bellswap.cli"])
    def test_python_m_runs_the_command_line(self, module):
        src = str(Path(bellswap.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-m", module, "selftest"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0
        assert "summary: 9/9 checks passed" in done.stdout.splitlines()


DETERMINISTIC_RUNS = [
    ("quantum", "--phi", "2,1,1,2", "--n", "4"),
    ("quantum", "--phi", "1,0,3,2", "--sector", "-"),
    ("check", "--model", "zoo:evasive_nonrobust"),
    ("check", "--model", "zoo:both_sector_robust"),
    ("factorize", "--model", "zoo:synthetic_factorizable:seed=5,density=0.6"),
    ("verdict", "--model", "zoo:synthetic_factorizable:seed=1"),
    ("verdict", "--model", "zoo:parity_split_robust"),
    ("search", "--family", "two_source", "--size1", "1", "--size4", "1"),
    ("search", "--family", "single_source", "--floor", "0.5"),
    ("zoo",),
    ("zoo", "--model", "zoo:single_source_efficient_50"),
    ("selftest",),
]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv", DETERMINISTIC_RUNS, ids=lambda argv: " ".join(argv)
    )
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        first_code, first_out, _ = invoke(capsys, *argv)
        second_code, second_out, _ = invoke(capsys, *argv)
        assert first_code == second_code
        assert first_out == second_out
        assert "elapsed" not in first_out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "bogus")[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "quantum", "--phi", "0,0,0,0", "--bogus")[0] == 2

    def test_missing_required_model(self, capsys):
        assert invoke(capsys, "check")[0] == 2

    def test_help_exits_cleanly(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_run_returns_instead_of_raising(self, capsys):
        code = run(["quantum", "--phi", "garbage"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv, module, stage, error", [
        (("check", "--model", "zoo:synthetic_factorizable:seed=1"),
         robustness, "check_perfect_correlations", ValueError),
        (("factorize", "--model", "zoo:synthetic_factorizable:seed=1"),
         factorizer, "build_components", ValueError),
        (("verdict", "--model", "zoo:synthetic_factorizable:seed=1"),
         verdict, "derive_product_rule", ValueError),
        (("search", "--n", "2"), search, "_demand_masks", ValueError),
        (("check", "--model", "{file}"), model, "_read_only", ValueError),
        (("check", "--model", "zoo:synthetic_factorizable:seed=1"),
         zoo, "_repair_support", TypeError),
    ], ids=["check", "factorize", "verdict", "search", "load", "zoo"])
    def test_internal_value_error_is_not_a_usage_error(
        self, capsys, monkeypatch, tmp_path, argv, module, stage, error
    ):
        # a bug inside a stage, the model intake or a zoo builder: the
        # ValueError or TypeError leaves run with its traceback, so the
        # process exits 1, never 2 with a usage line
        path = tmp_path / "model.json"
        bellswap.save(all_delta_one(n=1, size1=1, size4=1), path)

        def broken(*args, **kwargs):
            raise error(f"a bug in {stage}")

        monkeypatch.setattr(module, stage, broken)
        with pytest.raises(error, match=f"^a bug in {stage}$"):
            run([arg.format(file=path) for arg in argv])
        assert "error:" not in capsys.readouterr().err
