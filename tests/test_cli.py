"""Tests for the command-line dispatcher: payloads, exit codes, fixtures."""

import argparse
import contextlib
import hashlib
import itertools
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import brpic.cli as cli
from brpic import fpn
from brpic.cli import dispatch
from brpic.groups import named_group


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out) if out else None
    return code, payload, err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "center", "S3")
        assert code == 0 and out

    def test_unknown_group_is_domain_error(self, capsys):
        code, payload, _ = run_json(capsys, "center", "trivial-spec-typo")
        assert code == 1
        assert payload["error"] == "UnknownName"
        assert "trivial-spec-typo" in payload["message"]

    def test_overlapping_cycles_are_a_domain_error(self, capsys):
        code, payload, _ = run_json(capsys, "chartable", "perm:(1 2)(2 3)")
        assert code == 1
        assert payload["error"] == "UnknownName"
        assert payload["message"] == "bad cycle string '(1 2)(2 3)'"

    def test_certification_failure_is_domain_error(self, capsys, monkeypatch):
        import brpic.center as center

        certify = center._certify_modular

        def corrupt(G, simples, S, T):
            S = S.copy()
            S[1, 2] = S[1, 2] + 1
            certify(G, simples, S, T)

        monkeypatch.setattr(center, "_certify_modular", corrupt)
        code, payload, _ = run_json(capsys, "center", "S3")
        assert code == 1
        assert payload["error"] == "CertificationError"
        assert payload["message"].startswith("symmetry: ")

    def test_unknown_command_is_usage_error(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2
        assert not out
        assert "usage" in err or "invalid choice" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, "fpn", "3", "1", "bruhat")
        assert code == 2
        assert not out
        assert "--all or --matrix" in err

    def test_bad_images_is_usage_error(self, capsys):
        code, _, err = run(capsys, "autoeq", "v", "S3", "--images", "a,b,c")
        assert code == 2
        assert "comma-separated" in err

    def test_wrong_image_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "autoeq", "v", "S3", "--images", "0,1")
        assert code == 2
        assert "6 entries" in err

    def test_image_outside_the_group_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "autoeq", "v", "S3", "--images", "0,1,2,3,4,9"
        )
        assert code == 2
        assert not out
        assert "element 9 is not in S3" in err

    @pytest.mark.parametrize("modulus", ["-2", "0"])
    def test_modulus_below_one_is_usage_error(self, capsys, modulus):
        code, out, err = run(capsys, "--modulus", modulus, "h2", "D4")
        assert code == 2
        assert not out
        assert "--modulus" in err and f"got {modulus}" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("argv", [["fpn", "2", "1", "generate"],
                                      ["chartable", "S3"]])
    def test_cap_below_one_is_usage_error(self, capsys, cap, argv):
        # refused by argparse, not read as the default cap
        code, out, err = run(capsys, "--cap", cap, *argv)
        assert code == 2
        assert not out
        assert f"argument --cap: must be at least 1, got {cap}" in err

    @pytest.mark.parametrize("argv,message", [
        (["fpn", "2", "1", "generate"], "generated group exceeds the cap of 1"),
        (["chartable", "S3"], "group 'S3' has order 6 > cap 1"),
    ])
    def test_cap_of_one_is_exceeded(self, capsys, argv, message):
        code, payload, _ = run_json(capsys, "--cap", "1", *argv)
        assert code == 1
        assert payload["error"] == "CapExceeded"
        assert payload["message"] == message

    @pytest.mark.parametrize("argv,message", [
        (["fpn", "3", "0", "orders"], "argument n: must be at least 1, got 0"),
        (["fpn", "3", "-1", "bruhat", "--all"], "argument n: must be at least 1"),
        (["fpn", "3", "1", "bruhat", "--matrix", "[1]"], "square matrix"),
        (["fpn", "3", "1", "bruhat", "--matrix", "[[1, 0], [0]]"], "--matrix"),
        (["fpn", "3", "1", "bruhat", "--all", "--matrix", "[[1,0],[0,1]]"],
         "argument --matrix: not allowed with argument --all"),
    ])
    def test_bad_fpn_input_is_usage_error(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "brpic.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert not proc.stdout
        assert "Traceback" not in proc.stderr
        assert "usage:" in proc.stderr and message in proc.stderr

    def test_not_prime_is_domain_error(self, capsys):
        code, payload, _ = run_json(capsys, "fpn", "4", "1", "orders")
        assert code == 1
        assert payload["error"] == "NotPrime"

    def test_overflowing_prime_is_refused_before_trial_division(
            self, capsys, monkeypatch):
        import brpic.fpn as fpn

        def refuse(n):
            pytest.fail(f"trial division of {n}")

        monkeypatch.setattr(fpn, "_is_prime", refuse)
        code, payload, _ = run_json(capsys, "fpn", str(2**61 - 1), "1",
                                    "orders")
        assert code == 1
        assert payload["error"] == "BudgetExceeded"
        assert "FPN_INT64_LIMIT" in payload["message"]

    def test_overflowing_modulus_is_domain_error(self, capsys):
        code, payload, _ = run_json(capsys, "--modulus", str(2**40 + 15),
                                    "h2", "S3")
        assert code == 1
        assert payload["error"] == "BudgetExceeded"
        assert "FPN_INT64_LIMIT" in payload["message"]

    def test_unknown_example_is_domain_error(self, capsys):
        code, payload, _ = run_json(capsys, "examples", "bogus")
        assert code == 1
        assert payload["error"] == "UnknownName"

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run(capsys, "center", "Z/2")
        assert "time:" in err
        assert "time:" not in out


class TestReports:
    def test_center_s3_has_eight_objects(self, capsys):
        code, payload, _ = run_json(capsys, "center", "S3")
        assert code == 0
        result = payload["result"]
        assert result["size"] == 8
        assert len(result["objects"]) == 8
        assert result["objects"][0]["qdim"] == 1
        assert payload["command"] == ["center", "S3"]

    def test_chartable_s3(self, capsys):
        code, payload, _ = run_json(capsys, "chartable", "S3")
        result = payload["result"]
        assert [c["degree"] for c in result["characters"]] == [1, 1, 2]
        assert [c["size"] for c in result["classes"]] == [1, 3, 2]
        trivial = result["characters"][0]["values"]
        assert trivial == ["1", "1", "1"]

    def test_h2_s4_mod_2(self, capsys):
        code, payload, _ = run_json(capsys, "--modulus", "2", "h2", "S4")
        result = payload["result"]
        assert result["count"] == 2
        assert result["modulus"] == 2

    def test_byte_identical_repeat(self, capsys):
        _, out1, _ = run(capsys, "chartable", "S4")
        _, out2, _ = run(capsys, "chartable", "S4")
        assert out1 == out2


class TestAutoeqCommands:
    def test_v_inner_is_identity(self, capsys):
        code, payload, _ = run_json(
            capsys, "autoeq", "v", "S3", "--images", "0,2,1,4,3,5"
        )
        assert code == 0
        result = payload["result"]
        assert result["mapping"] == list(range(8))
        assert result["provenance"]["kind"] == "v"

    def test_bv_s4_swaps(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "--modulus",
            "2",
            "autoeq",
            "bv",
            "S4",
            "--class-index",
            "1",
        )
        assert code == 0
        mapping = payload["result"]["mapping"]
        swapped = sorted(
            (i, mapping[i]) for i in range(len(mapping)) if i < mapping[i]
        )
        assert swapped == [(5, 6), (7, 8), (12, 15), (13, 14)]

    def test_bv_class_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "autoeq", "bv", "S3", "--class-index", "5"
        )
        assert code == 2
        assert "out of range" in err

    def test_rprime_s3(self, capsys):
        code, payload, _ = run_json(
            capsys, "autoeq", "rprime", "S3", "--normal", "0,3,4"
        )
        assert code == 0
        result = payload["result"]
        assert result["determined"] == {"0": 0, "1": 1, "2": 5}
        assert result["count"] == 1
        assert result["completions"][0]["mapping"] == [0, 1, 5, 3, 4, 2, 6, 7]

    def test_rprime_not_closed_subgroup(self, capsys):
        code, payload, _ = run_json(
            capsys, "autoeq", "rprime", "S3", "--normal", "0,3"
        )
        assert code == 1
        assert payload["error"] == "NotASubgroup"

    @pytest.mark.parametrize("ids,bad", [("0,-3,-2", -3), ("0,3,99", 99)])
    def test_rprime_ids_outside_the_group(self, capsys, ids, bad):
        code, payload, _ = run_json(
            capsys, "autoeq", "rprime", "S3", "--normal", ids
        )
        assert code == 1
        assert payload["error"] == "NotASubgroup"
        assert f"element {bad} is not in S3" in payload["message"]

    def test_rprime_nonabelian_normal(self, capsys):
        code, payload, _ = run_json(
            capsys, "autoeq", "rprime", "S4", "--normal", ",".join(map(str, range(24)))
        )
        assert code == 1
        assert payload["error"] == "NotAbelianNormal"

    def test_cap_is_not_the_completion_node_budget(self, capsys):
        code, payload, _ = run_json(
            capsys, "--cap", "4", "autoeq", "rprime", "Z/2^2", "--normal", "0,1"
        )
        assert code == 0
        assert payload["result"]["count"] == 4

    def test_ev_z8_elementary(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "autoeq",
            "ev",
            "Z/2^3",
            "--subgroup",
            "0,1,2,3",
            "--class-index",
            "1",
        )
        assert code == 0
        result = payload["result"]
        assert result["determined"] == {"0": 0, "1": 1}
        assert result["count"] == 64

    def test_generate_and_verify(self, capsys, tmp_path):
        _, payload, _ = run_json(
            capsys, "autoeq", "rprime", "S3", "--normal", "0,3,4"
        )
        mapping_json = payload["result"]["completions"][0]
        path = tmp_path / "refl.json"
        path.write_text(json.dumps(mapping_json))

        code, payload, _ = run_json(capsys, "autoeq", "generate", str(path))
        assert code == 0
        assert payload["result"]["order"] == 2
        assert payload["result"]["words"] == [[], [0]]

        code, payload, _ = run_json(capsys, "autoeq", "verify", str(path))
        assert code == 0
        assert payload["result"]["ok"] is True
        assert payload["result"]["witness"] is None

    def test_generate_resolves_each_group_under_the_cap(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps({"group": "S3", "mapping": list(range(8))}))
        code, payload, _ = run_json(
            capsys, "--cap", "4", "autoeq", "generate", str(path)
        )
        assert code == 1
        assert payload["error"] == "CapExceeded"

    def test_verify_bad_mapping_reports_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        # Swapping the two objects over the identity class with different
        # twists breaks T-equivariance.
        path.write_text(
            json.dumps({"group": "Z/2", "mapping": [0, 1, 3, 2]})
        )
        code, payload, _ = run_json(capsys, "autoeq", "verify", str(path))
        assert code == 0
        assert payload["result"]["ok"] is False
        assert payload["result"]["witness"]

    @pytest.mark.parametrize("sub", ["verify", "generate"])
    @pytest.mark.parametrize("fields, message", [
        ({"mapping": [0, 1, 2, 3, 4, 5, 6, 7.0]},
         "'mapping' entry [7] is 7.0, not an integer"),
        ({"mapping": [0, 1, 2, 3, 4, 5, 6, 6.9]},
         "'mapping' entry [7] is 6.9, not an integer"),
        ({"mapping": [0, True, 2, 3, 4, 5, 6, 7]},
         "'mapping' entry [1] is true, not an integer"),
        ({"mapping": None}, "'mapping' is null, not a list"),
        ({"mapping": "abc"}, "'mapping' is \"abc\", not a list"),
        ({"group": 5}, "'group' is 5, not a string"),
    ])
    def test_malformed_mapping_file_is_usage_error(self, capsys, tmp_path,
                                                   sub, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"group": "S3", "mapping": list(range(8)),
                                    **fields}))
        code, out, err = run(capsys, "autoeq", sub, str(path))
        assert code == 2
        assert not out
        assert f"error: {path}: {message}" in err

    def test_verify_missing_file(self, capsys):
        code, _, err = run(capsys, "autoeq", "verify", "/tmp/nope-missing.json")
        assert code == 2
        assert "no such file" in err

    def test_bimodule_rprime(self, capsys):
        code, payload, _ = run_json(
            capsys, "autoeq", "bimodule", "rprime", "S3", "--normal", "0,3,4"
        )
        assert code == 0
        result = payload["result"]
        assert result["U_order"] == 18
        assert result["U1"] == [0, 3, 4]
        assert result["U2"] == [0, 3, 4]
        assert result["conditions"][0] is True

    def test_bimodule_v(self, capsys):
        code, payload, _ = run_json(
            capsys, "autoeq", "bimodule", "v", "S3"
        )
        assert code == 0
        result = payload["result"]
        assert result["U_order"] == 6
        assert result["eta_class"] == "trivial"

    def test_bimodule_v_s5(self, capsys):
        # S5 x S5^op as a group table would be 120^4 int64 entries, 1.54 GiB
        code, payload, _ = run_json(
            capsys, "autoeq", "bimodule", "v", "S5"
        )
        assert code == 0
        result = payload["result"]
        assert result["U_order"] == 120
        S5 = named_group("S5")
        assert result["U_pairs"] == [[a, S5.inv_of(a)] for a in range(120)]

    def test_bimodule_missing_args(self, capsys):
        code, _, err = run(capsys, "autoeq", "bimodule", "bv", "S3")
        assert code == 2
        assert "--class-index" in err

    @pytest.mark.parametrize("kind,args,text", [
        ("ev", ("--class-index", "0"),
         "bimodule ev needs --subgroup and --class-index"),
        ("rprime", (), "bimodule rprime needs --normal"),
    ])
    def test_bimodule_missing_args_texts(self, capsys, kind, args, text):
        code, _, err = run(capsys, "autoeq", "bimodule", kind, "S3", *args)
        assert code == 2
        assert text in err

    def test_bimodule_ev_with_v_moving_the_subgroup(self, capsys):
        code, payload, _ = run_json(
            capsys, "--modulus", "2", "autoeq", "bimodule", "ev", "Z/2^3",
            "--subgroup", "0,1,2,3", "--class-index", "1",
            "--images", "0,1,4,5,2,3,6,7",
        )
        assert code == 1
        assert payload["error"] == "UnsupportedProvenance"
        assert "v(S) = S" in payload["message"]

    def test_bimodule_ev_with_v_fixing_the_subgroup(self, capsys):
        code, payload, _ = run_json(
            capsys, "--modulus", "2", "autoeq", "bimodule", "ev", "Z/2^3",
            "--subgroup", "0,1,2,3", "--class-index", "1",
            "--images", "0,2,1,3,4,6,5,7",
        )
        assert code == 0
        result = payload["result"]
        assert result["U_order"] == 32
        assert result["U1"] == result["U2"] == [0, 1, 2, 3]


class TestFpnCommands:
    def test_orders(self, capsys):
        code, payload, _ = run_json(capsys, "fpn", "3", "1", "orders")
        assert code == 0
        result = payload["result"]
        assert result == {
            "p": 3,
            "n": 1,
            "generated": 4,
            "oracle": 4,
            "match": True,
        }

    def test_generate_family(self, capsys):
        code, payload, _ = run_json(
            capsys, "fpn", "3", "1", "generate", "--which", "R"
        )
        result = payload["result"]
        assert result["count"] == 2
        assert result["matrices"][0] == [[1, 0], [0, 1]]
        assert result["matrices"][1] == [[0, 1], [1, 0]]

    def test_generate_all(self, capsys):
        code, payload, _ = run_json(capsys, "fpn", "2", "1", "generate")
        assert payload["result"]["count"] == 6

    def test_bruhat_census(self, capsys):
        code, payload, _ = run_json(capsys, "fpn", "3", "1", "bruhat", "--all")
        result = payload["result"]
        assert result["cells"] == {"0": 2, "1": 2}
        assert result["total"] == 4

    def test_bruhat_matrix(self, capsys):
        code, payload, _ = run_json(
            capsys, "fpn", "3", "1", "bruhat", "--matrix", "[[2,0],[0,2]]"
        )
        result = payload["result"]
        assert result["reflection_rank"] == 0
        assert result["b"] == [[2, 0], [0, 2]]
        assert result["e"] == [[1, 0], [0, 1]]

    def test_bruhat_bad_matrix_json(self, capsys):
        code, _, err = run(
            capsys, "fpn", "3", "1", "bruhat", "--matrix", "not-json"
        )
        assert code == 2

    def test_bruhat_matrix_size_must_match_n(self, capsys):
        eye = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
        code, out, err = run(capsys, "fpn", "3", "1", "bruhat", "--matrix", eye)
        assert code == 2
        assert not out
        assert "4 x 4" in err and "n = 1" in err

    def test_bruhat_non_form_preserving(self, capsys):
        code, payload, _ = run_json(
            capsys, "fpn", "3", "1", "bruhat", "--matrix", "[[1,1],[0,1]]"
        )
        assert code == 1
        assert payload["error"] == "NotFormPreserving"


class TestEmitMatchesJsonDumps:
    """stdout is ``json.dumps(report, indent=2, sort_keys=True)`` plus a
    newline, byte for byte, whether or not the report holds a matrix stack."""

    @staticmethod
    def check(capsys, report):
        code, out, _ = run(capsys, *report["command"])
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        return code

    @pytest.mark.parametrize("which, matrices", [
        ("V", []),
        ("R", [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    ])
    def test_generator_stack(self, capsys, which, matrices):
        report = {
            "command": ["fpn", "2", "1", "generate", "--which", which],
            "notes": [f"generator list for family {which}"],
            "result": {"count": len(matrices), "matrices": matrices,
                       "n": 1, "p": 2, "which": which},
        }
        assert self.check(capsys, report) == 0

    def test_error_report(self, capsys):
        report = {
            "command": ["fpn", "4", "1", "generate"],
            "error": "NotPrime",
            "message": "4 is not prime",
        }
        assert self.check(capsys, report) == 1


class TestStreamedEmit:
    """``_emit`` writes each stack ``_STACK_CHUNK`` matrices at a time, and
    stdout is still ``json.dumps`` of the report with each stack as nested
    lists, byte for byte."""

    C = 3

    @staticmethod
    def as_lists(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, dict):
            return {k: TestStreamedEmit.as_lists(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [TestStreamedEmit.as_lists(v) for v in obj]
        return obj

    @staticmethod
    def stack(N, k=2, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (N, k, k)).astype(np.uint8)

    def check(self, capsys, monkeypatch, report):
        monkeypatch.setattr(cli, "_STACK_CHUNK", self.C)
        cli._emit(report)
        want = json.dumps(self.as_lists(report), indent=2, sort_keys=True)
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("N", [0, 1, C - 1, C, C + 1, 3 * C + 2])
    def test_stack_lengths(self, capsys, monkeypatch, N):
        report = {"command": ["x"], "result": {"count": N,
                                               "matrices": self.stack(N)}}
        self.check(capsys, monkeypatch, report)

    def test_two_stacks(self, capsys, monkeypatch):
        report = {"b": self.stack(self.C + 1, 4, seed=1), "a": [1, 2],
                  "c": self.stack(2 * self.C, 3, seed=2), "d": "\u00e9"}
        self.check(capsys, monkeypatch, report)

    def test_two_depths(self, capsys, monkeypatch):
        report = {"top": self.stack(self.C + 2),
                  "result": {"deep": {"deeper": [self.stack(1, 4, seed=3)],
                                      "empty": self.stack(0)}}}
        self.check(capsys, monkeypatch, report)

    def test_chunks_are_separate_writes(self, capsys, monkeypatch):
        writes = []
        monkeypatch.setattr(cli, "_STACK_CHUNK", self.C)
        monkeypatch.setattr(cli.sys.stdout, "write", writes.append)
        cli._emit({"m": self.stack(3 * self.C + 1)})
        # head, opening bracket, four chunks, closing bracket, tail
        assert len(writes) == 8
        assert [w.count("\n    [") for w in writes[2:6]] == [3, 3, 3, 1]

    class Sink:
        """A stdout that keeps only the length of what is written."""

        size = 0

        def write(self, text):
            self.size += len(text)

    def test_peak_memory_is_a_quarter_of_the_text(self):
        # the (5, 2) closure, 8.8 MB of JSON; tracemalloc sees numpy's
        # buffers and Python's strings, and the bound is a ratio
        E = fpn.matrix_closure(fpn.standard_generators(5, 2))[1]
        sink = self.Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                cli._emit({"command": ["fpn", "5", "2", "generate"],
                           "result": {"matrices": E}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 8_000_000
        assert peak <= sink.size / 4


class TestBruhatCensus:
    def test_o4_plus_f5_one_slice_at_a_time(self, capsys, monkeypatch):
        calls, real = [], fpn._bruhat_stack
        monkeypatch.setattr(fpn, "_bruhat_stack",
                            lambda p, E: calls.append(len(E)) or real(p, E))
        code, payload, _ = run_json(capsys, "fpn", "5", "2", "bruhat", "--all")
        assert code == 0
        assert payload["result"] == {"p": 5, "n": 2, "total": 28800, "cells": {
            "0": 12000, "1": 14400, "2": 2400}}
        assert sum(calls) == 28800 and max(calls) == fpn._BRUHAT_SLICE


class TestMatrixArgument:
    """``fpn bruhat --matrix`` takes integers only: anything else is a usage
    error naming the entry, never a coerced value or a traceback."""

    @pytest.mark.parametrize("matrix, entry", [
        ("[[1.5,0],[0,1]]", "entry [0][0] is 1.5"),
        ("[[true,0],[0,1]]", "entry [0][0] is true"),
        ('[[1,0],[0,"1"]]', 'entry [1][1] is "1"'),
        ("[[1e30,0],[0,1]]", "entry [0][0] is 1e+30"),
        ("[[1,0],[0,100000000000000000000]]",
         "entry [1][1] is 100000000000000000000"),
        ("[[1,-9223372036854775809],[0,1]]",
         "entry [0][1] is -9223372036854775809"),
        ("[[1,0],[9223372036854775808,1]]",
         "entry [1][0] is 9223372036854775808"),
        ("[[NaN,0],[0,1]]", "entry [0][0] is NaN"),
        ("[[null,0],[0,1]]", "entry [0][0] is null"),
        ('{"a": 1}', 'entry [0][0] is {"a": 1}'),
        ("[[[1]]]", "entry [0][0] is [1]"),
    ])
    def test_non_integer_entry_is_usage_error(self, capsys, matrix, entry):
        code, out, err = run(capsys, "fpn", "3", "1", "bruhat",
                             "--matrix", matrix)
        assert code == 2
        assert not out
        assert f"error: --matrix: {entry}, not an int64 integer" in err

    @pytest.mark.parametrize("matrix, message", [
        ("[" * 5000, "maximum recursion depth"),
        ("[[" + "1" * 5000 + "]]", "digits"),
    ])
    def test_unreadable_json_is_usage_error(self, capsys, matrix, message):
        code, out, err = run(capsys, "fpn", "3", "1", "bruhat",
                             "--matrix", matrix)
        assert code == 2
        assert not out
        assert "--matrix must be a JSON matrix" in err and message in err

    def test_int64_extremes_are_read_exactly(self, capsys):
        lo, hi = -2**63, 2**63 - 1          # both 1 mod 3
        code, payload, _ = run_json(capsys, "fpn", "3", "1", "bruhat",
                                    "--matrix", f"[[{lo},0],[0,{hi}]]")
        assert code == 0
        assert payload["result"]["reflection_rank"] == 0
        assert payload["result"]["b"] == [[1, 0], [0, 1]]

    def test_integer_input_prints_the_same_bytes(self, capsys):
        argv = ["fpn", "3", "2", "bruhat", "--matrix",
                "[[0,0,1,0],[0,1,0,0],[1,0,0,0],[0,0,0,1]]"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        M = cli.FpMatrix(3, json.loads(argv[-1]))
        b, e, r = cli.bruhat_factorize(M).factors
        assert out == json.dumps({
            "command": argv,
            "notes": ["b lower triangular, e upper unipotent, b@e@r = input"],
            "result": {"p": 3, "n": 2, "reflection_rank": 1, "b": b.tolist(),
                       "e": e.tolist(), "r": r.tolist()},
        }, indent=2, sort_keys=True) + "\n"


class TestPinnedClosureOutput:
    """stdout digests of closure listings: they pin the discovery order and
    the shortest words, which no payload assertion above covers."""

    Z2SQ_ELEMENTS = {
        "v1.json": [0, 2, 1, 3, 8, 10, 9, 11, 4, 6, 5, 7, 12, 14, 13, 15],
        "v2.json": [0, 2, 3, 1, 8, 10, 11, 9, 12, 14, 15, 13, 4, 6, 7, 5],
        "bv.json": [0, 1, 2, 3, 5, 4, 7, 6, 10, 11, 8, 9, 15, 14, 13, 12],
        "r.json": [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15],
    }

    @staticmethod
    def digest(capsys, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("p, n, sha", [
        ("2", "2",
         "6ee4f8c60867f7901135d4712ea0735ad423a0399cf753ed70a8e87ae5b44790"),
        ("3", "2",
         "e4a5bade766c79986e5d5b8949ff910f1301ed7b10341891fbc55c07db78e39a"),
        ("5", "2",
         "b7fe0361ab22c3a2db8814d823d4be5846b37beaf723f5328075ec922f3b95aa"),
    ])
    def test_fpn_generate(self, capsys, p, n, sha):
        assert self.digest(capsys, "fpn", p, n, "generate") == sha

    def test_autoeq_generate(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, mapping in self.Z2SQ_ELEMENTS.items():
            (tmp_path / name).write_text(
                json.dumps({"group": "Z/2^2", "mapping": mapping})
            )
        sha = self.digest(capsys, "autoeq", "generate", *self.Z2SQ_ELEMENTS)
        assert sha == (
            "9775492261c4d571c4beb7b2f6c1e277315fc9b3bedacd8fe643d50367ae584f"
        )


class TestPinnedTableOutput:
    """sha256 of ``chartable G`` and ``center G`` stdout on the groups of the
    ``center`` benchmark workload, recorded from the tuple-of-Fraction
    ``Cyclotomic`` that preceded integer coordinates over one denominator:
    they pin every rendered value and the row order ``order_key`` sets."""

    STDOUT_SHA256 = {
        ("chartable", "S3"):
            "6d634905b6feff8bd21a4386001a1bf01b905bb6bd497517c51e0ed4e7ed88b7",
        ("chartable", "D4"):
            "89ad7b0c291670929e1ece534776f153b0688d2c6d109e9155ceea2fcbddd816",
        ("chartable", "Q8"):
            "396052b527ee7013bc22820a5f0a13cc3277d8243a45fb37ab44333da4a37704",
        ("chartable", "A4"):
            "a5af9bd33c7295c3b30ae606c98c2ef0e872400cb231de8fd61147067c0652bb",
        ("chartable", "S4"):
            "6c1caab34d02776354c483b6ef56d4a9e4d7833a6c0ca0beeb90682eb4bd262c",
        ("chartable", "A5"):
            "331691b5a3acdfbcea3dddb5d33c5e6898c9653589cf71e616708290f4e8f2e8",
        ("chartable", "S3xZ/2"):
            "33e58b6ddf35f8f3008fa2c61932328ae3eec94620dd199a14f8b75ca9f5aeee",
        ("chartable", "Z/2^2"):
            "bb453f80a317b7a7e22ad784164ae0836ca74081e385cf9adc014150c2925628",
        ("chartable", "Z/3"):
            "ba8b9ccebc50df19ed5f85ba025b3cae8557235d960b921f1e5c95e2c79772f6",
        ("chartable", "Z/5"):
            "7dc74eb31ff3c378306b0a28153aa3b632ddda8e5425bb1e8c0f79f1c2707bb9",
        ("chartable", "Z/6"):
            "cf65666401a859a16696825f7b7eb57a41392919ab8510497d8c30a9df59aea5",
        ("chartable", "Z/2^3"):
            "5a05435a117610061a5d34f888299d4db10e2b03a2ad418d2af01df2266ef6a4",
        ("center", "S3"):
            "a2acfcb473c59926d52ea7ab24b066b2f3d82875a490fa0ff018e2a4f23ed1b4",
        ("center", "D4"):
            "b0b082b46f572d70dc6d27abf7a1f84875023ea355b2f6f5239624bdd1d6514d",
        ("center", "Q8"):
            "684fe47b33df211996c271e97b15479c32f6f222ffcaa6b7bd044921dba9a527",
        ("center", "A4"):
            "b86243a1e0b761781172eefd454fed9b4e1c64b060cc272f701017c4d9cdee0d",
        ("center", "S4"):
            "2b7f147062a78d2d3377f877e3b4d7e49504454c775c07703b5a24dae2c164e0",
        ("center", "A5"):
            "5a91c3f4f014de2dcee8fd284d9b6eeb75eecc32e01c6ec102f6af6ff287b577",
        ("center", "S3xZ/2"):
            "490f5698f927cacce804d49c452763fc9bced6e738e861f55b5962b914986fcd",
        ("center", "Z/2^2"):
            "11f6a2a2b6a5dfec7dcb5f37a9f3442a9925be1e881f26493f21a907a35ff41c",
        ("center", "Z/3"):
            "178728869718d30a56ec3622fdc18984cfc4267249e150ec24a75568fd50318c",
        ("center", "Z/5"):
            "a0fb45f4bc2749eb0d376f8d0e6bf8aa3b447d9ec85c61dba1d2ed7055eaa290",
        ("center", "Z/6"):
            "82f00c3663f9c69e2b9a1b2bc8b65a2b48105c4694e7d10ee616141a8c546802",
        ("center", "Z/2^3"):
            "3d60221c9d6e5e0a7160c09f25ef123ab1a2cb60fe8ae5caacac55a11d4c1dff",
    }

    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
    def test_stdout_is_pinned(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            self.STDOUT_SHA256[argv])


class TestExamples:
    @pytest.mark.parametrize(
        "name", ["s3-reflection", "s4-bv-swap", "fpn-orders", "a5-rigidity"]
    )
    def test_committed_fixtures_pass(self, capsys, name):
        code, payload, _ = run_json(capsys, "examples", name)
        assert code == 0
        assert payload["result"]["status"] == "PASS"

    def test_fail_on_tampered_fixture(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_fixture_path", lambda name: tmp_path / f"{name}.json"
        )
        code, payload, _ = run_json(capsys, "examples", "a5-rigidity", "--regen")
        assert code == 0 and payload["result"]["status"] == "REGENERATED"

        code, payload, _ = run_json(capsys, "examples", "a5-rigidity")
        assert code == 0 and payload["result"]["status"] == "PASS"

        fixture = tmp_path / "a5-rigidity.json"
        data = json.loads(fixture.read_text())
        data["abelian_normal_subgroup_orders"] = [1, 5]
        fixture.write_text(json.dumps(data, indent=2, sort_keys=True))
        code, payload, _ = run_json(capsys, "examples", "a5-rigidity")
        assert code == 1
        assert payload["result"]["status"] == "FAIL"
        assert payload["result"]["expected"] != payload["result"]["actual"]

    def test_missing_fixture_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_fixture_path", lambda name: tmp_path / f"{name}.json"
        )
        code, payload, _ = run_json(capsys, "examples", "fpn-orders")
        assert code == 1
        assert payload["result"]["status"] == "FAIL"
        assert payload["result"]["reason"] == "missing fixture"

    def test_s3_reflection_payload_content(self):
        payload = cli._example_s3_reflection()
        assert payload["completions"] == [[0, 1, 5, 3, 4, 2, 6, 7]]
        assert payload["completion_orders"] == [2]
        assert payload["generated_order"] == 2


class TestReadmeCommandTable:
    """Every row of README's command table names a subcommand the parser
    has, with flags and positionals the parser takes."""

    ROW = re.compile(r"^\| `brpic ([^`]*)` \|", re.M)
    # Placeholders that come before the subcommand name.
    SAMPLE = {"P": "3", "N": "1"}
    # A positional with choices appears in the usage as its choice list.
    SHOWN_AS = {"KIND": "{v,bv,ev,rprime}"}

    @classmethod
    def rows(cls):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = cls.ROW.findall(text)
        assert len(rows) >= 10
        return rows

    @classmethod
    def split(cls, row):
        """The subcommand paths a row names, and the rest of the row."""
        words = row.split()
        path = []
        while words and (words[0] in cls.SAMPLE
                         or re.fullmatch(r"[a-z0-9/]+", words[0])):
            word = words.pop(0)
            path.append([cls.SAMPLE[word]] if word in cls.SAMPLE
                        else word.split("/"))
        return [list(p) for p in itertools.product(*path)], " ".join(words)

    def test_every_row_is_a_subcommand_with_its_arguments(self, capsys):
        for row in self.rows():
            paths, rest = self.split(row)
            for path in paths:
                code, out, _ = run(capsys, *path, "-h")
                assert code == 0, row
                usage = out.split("[-h]", 1)[1].split("\n\n", 1)[0]
                for flag in re.findall(r"--[a-z][a-z-]*", rest):
                    assert flag in usage, (row, flag)
                for name in re.findall(r"\b[A-Z]{2,}\b", rest):
                    shown = self.SHOWN_AS.get(name, name.lower())
                    assert re.search(rf"(?<!\w){re.escape(shown)}", usage), (
                        row, name)


class TestDispatchHistory:
    """In one process, each ``dispatch`` call writes what a fresh process
    writes for the same argv, whatever ran before it."""

    ARGVS = [
        ["frobnicate"],
        ["-h"],
        ["--cap", "1", "center", "S3"],
        ["center", "Z/2"],
        ["--modulus", "2", "h2", "D4"],
        ["h2", "D4"],
        ["fpn", "3", "1", "bruhat"],
        ["fpn", "3", "1", "bruhat", "--all"],
        ["fpn", "3", "1", "bruhat", "--matrix", "[[1,0],[0,1]]"],
        ["fpn", "3", "1", "bruhat", "--all", "--matrix", "[[1,0],[0,1]]"],
    ]

    @staticmethod
    def untimed(code, out, err):
        err = "".join(
            line for line in err.splitlines(True) if not line.startswith("time:")
        )
        return code, out, err

    @pytest.mark.parametrize("argv, progs", [
        (["-h"], ["brpic"]),
        (["center", "Z/2"], ["brpic", "brpic center"]),
        (["fpn", "3", "1", "bruhat", "--all"],
         ["brpic", "brpic fpn", "brpic fpn p n bruhat"]),
        (["autoeq", "verify", "-h"],
         ["brpic", "brpic autoeq", "brpic autoeq verify"]),
    ])
    def test_builds_only_the_parsers_on_its_path(
        self, capsys, monkeypatch, argv, progs
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        run(capsys, *argv)
        assert built == progs

    def test_matches_fresh_processes_forwards_and_backwards(
        self, capsys, monkeypatch
    ):
        # Usage text wraps at the terminal width; pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        fresh = {}
        for argv in self.ARGVS:
            proc = subprocess.run(
                [sys.executable, "-m", "brpic.cli", *argv],
                capture_output=True, text=True,
            )
            fresh[tuple(argv)] = self.untimed(
                proc.returncode, proc.stdout, proc.stderr
            )
        codes = {code for code, _, _ in fresh.values()}
        assert codes == {0, 1, 2}
        for argv in self.ARGVS + self.ARGVS[::-1]:
            assert self.untimed(*run(capsys, *argv)) == fresh[tuple(argv)], argv


class TestModuleEntry:
    def test_python_m_invocation_byte_identical(self):
        cmd = [sys.executable, "-m", "brpic.cli", "fpn", "2", "1", "orders"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["result"]["generated"] == 6
        assert "time:" in a.stderr


class TestOrdersAndCensusFromTheChain:
    """``fpn orders`` and ``fpn bruhat --all`` read the group from a
    stabilizer chain, not from a breadth-first closure.  Their stdout is
    pinned to the bytes the closure-based commands printed, errors
    included, and the cap still counts elements."""

    STDOUT_SHA256 = {
        ("2", "1", "orders"):
            "d041bb725e57ae97f49428b47ed47647a4a95f055d922b0611c3ea348453963d",
        ("2", "1", "bruhat", "--all"):
            "b95e10ddfc6a66fa2e476aadc97e4e93b851dc28cac065a31f806f9539f9d42b",
        ("3", "1", "orders"):
            "b4dae3596122e645ead77e39688ed43b367a3ada4a07fc658c4087d7fd0f284d",
        ("3", "1", "bruhat", "--all"):
            "98d71ec3fefbed8ffdc1725a132285c4485233e56aa173014269715a8ebdd861",
        ("5", "1", "orders"):
            "6b824c31019daec5aa4dbd50389511448f2239f038f0672d56917f7e793843a4",
        ("5", "1", "bruhat", "--all"):
            "820674b9e49e5540c0e02441deb32fb080468841a387c9e4bff496e92ca1bbbb",
        ("2", "2", "orders"):
            "16234b3ea2828ce0cca5d0082b4579c8bae983a99c8acf9da4ab36cfad5f5b86",
        ("2", "2", "bruhat", "--all"):
            "6b8b8d090a31f0884afbddd25f5b94f739d4aa11c2dbbad6bc0e460584b63ec6",
        ("3", "2", "orders"):
            "074546339d62abaf7e621688f4d2a12c7974193f8de56d3bef293d6385afe255",
        ("3", "2", "bruhat", "--all"):
            "a457bd834e43c652ba236ed17d79cbf489ed10b13fb2a9cdea156f0cf2cd8486",
        ("5", "2", "orders"):
            "d1ae8d90d4bebac1dcbfa37e0ba9ece59f3fd10cb0bc03c43e7adc2afbab87a4",
        ("5", "2", "bruhat", "--all"):
            "ee44448f5f9dcf76e2a5508c6e0455fd9e3b29e1f29edf567c2c915cc4e9a125",
    }

    def test_every_config_is_pinned(self):
        pinned = {(int(p), int(n)) for p, n, *_ in self.STDOUT_SHA256}
        assert pinned == set(cli._FPN_CONFIGS) | {(5, 2)}

    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
    def test_stdout_is_pinned(self, capsys, argv):
        code, out, _ = run(capsys, "fpn", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            self.STDOUT_SHA256[argv])

    @pytest.mark.parametrize("argv, error, message", [
        (["fpn", "3", "3", "orders"], "CapExceeded",
         "generated group exceeds the cap of 1000000"),
        (["fpn", "2", "3", "bruhat", "--all"], "CapExceeded",
         "generated group exceeds the cap of 1000000"),
        (["fpn", "7", "2", "orders"], "BudgetExceeded",
         "oracle enumeration restricted to 2n <= 4, p <= 5;"
         " got (p, n) = (7, 2)"),
        (["--cap", "719", "fpn", "2", "2", "orders"], "CapExceeded",
         "generated group exceeds the cap of 719"),
        (["--cap", "719", "fpn", "2", "2", "bruhat", "--all"], "CapExceeded",
         "generated group exceeds the cap of 719"),
    ])
    def test_errors_are_unchanged(self, capsys, argv, error, message):
        # (3, 3) has 24,261,120 elements and (2, 3) 1,451,520, past the
        # default cap; (7, 2) has 225,792, inside it, so the oracle's limit
        # is what stops it
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out == json.dumps({"command": argv, "error": error,
                                  "message": message},
                                 indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("sub, result", [
        (["orders"], {"generated": 720, "match": True, "n": 2, "oracle": 720,
                      "p": 2}),
        (["bruhat", "--all"], {"cells": {"0": 384, "1": 288, "2": 48},
                               "n": 2, "p": 2, "total": 720}),
    ])
    def test_cap_of_exactly_the_order_passes(self, capsys, sub, result):
        code, payload, _ = run_json(capsys, "--cap", "720", "fpn", "2", "2",
                                    *sub)
        assert code == 0
        assert payload["result"] == result

    def test_cap_bounds_the_chain_memory(self, capsys):
        # O+_6(7): its 17,100 isotropic basis-orbit points are past the cap
        # with the next orbit; [orbit, P] transversal rows would be 1.2 GB
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "fpn", "7", "3", "orders")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert json.loads(out)["error"] == "CapExceeded"
        assert peak < 64 * 2**20

    def test_cap_bounds_the_chain_memory_at_11_3(self):
        # 162,260 basis-orbit points: the basis action itself peaks near
        # 250 MB, and [orbit, P] transversal rows would be 210 GB
        script = (
            "import resource, runpy, sys\n"
            "sys.argv = ['brpic', 'fpn', '11', '3', 'orders']\n"
            "try:\n"
            "    runpy.run_module('brpic.cli', run_name='__main__')\n"
            "finally:\n"
            "    r = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    print('maxrss_kb', r, file=sys.stderr)\n")
        res = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True)
        assert res.returncode == 1
        assert res.stdout == json.dumps(
            {"command": ["fpn", "11", "3", "orders"], "error": "CapExceeded",
             "message": "generated group exceeds the cap of 1000000"},
            indent=2, sort_keys=True) + "\n"
        rss_kb = int(re.search(r"maxrss_kb (\d+)", res.stderr).group(1))
        assert rss_kb < 400 * 1024

    def test_commands_never_close_the_group(self, capsys, monkeypatch):
        def refuse(*args):
            pytest.fail("breadth-first closure")

        # cli holds its own reference to the closure
        monkeypatch.setattr(fpn, "matrix_closure", refuse)
        monkeypatch.setattr(cli, "matrix_closure", refuse)
        for sub in (["orders"], ["bruhat", "--all"]):
            code, _, _ = run(capsys, "fpn", "3", "2", *sub)
            assert code == 0
        # the refusal bites where the group is listed
        with pytest.raises(pytest.fail.Exception, match="breadth-first"):
            run(capsys, "fpn", "3", "2", "generate")
