"""Tests for the command-line dispatcher: payloads, exit codes, fixtures."""

import argparse
import hashlib
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brpic.cli as cli
from brpic.cli import dispatch


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
