"""End-to-end checks of the command line front end.

Each test drives main() with an argv list and inspects exit code,
stdout and stderr, so the full parse / dispatch / render path
runs exactly as a shell invocation would.
"""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import exptriple.cli as cli_module
import exptriple.search as search_module
from exptriple.acceptance import CheckResult
from exptriple.cli import JSON_FIELDS, main
from exptriple.config import SearchBounds
from exptriple.families import classify_nine, gen_family

TINY_BOX = ("--a1-max", "6", "--g-max", "6", "--b1-max", "60",
            "--exp-max", "5", "--max-bits", "64")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


class TestEnumerate:
    def test_coprime_showcase_human(self, capsys):
        code, out, err = run(capsys, "enumerate", "3", "5", "2", "--max-bits", "64")
        assert code == 0
        assert "3 + 5 = 2^3" in out
        assert "3^3 + 5 = 2^5" in out
        assert "3 + 5^3 = 2^7" in out
        assert "N = 3" in out
        assert "coprime-352" in out
        assert "[types" not in out

    def test_shared_factor_shows_type_profiles(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "6", "38", "--max-bits", "64")
        assert code == 0
        assert "2 + 6^2 = 38    [types 2:B]" in out
        assert "2^5 + 6 = 38    [types 2:A]" in out
        assert "N = 2" in out

    def test_hard_to_factor_c_sharing_no_prime(self):
        # c = (2^61 - 1)(2^64 - 59) is coprime to 6 and 10, so nothing
        # needs its factors; factoring it fully takes far longer than 10 s
        c = (2**61 - 1) * (2**64 - 59)
        argv = [sys.executable, "-m", "exptriple.cli", "enumerate", "6", "10", str(c)]
        default = subprocess.run(argv, env=subprocess_env(), capture_output=True,
                                 text=True, timeout=10)
        assert default.returncode == 0
        assert f"solutions of 6^x + 10^y = {c}^z below 2^" in default.stdout
        assert default.stdout.splitlines()[0].endswith(": 0")
        small = subprocess.run([*argv, "--max-bits", "64"], env=subprocess_env(),
                               capture_output=True, text=True, timeout=10)
        assert small.returncode == 0
        assert f"warning: {c} does not fit below 2^64" in small.stderr

    def test_square_of_a_large_prime_in_every_base(self):
        # gcd(a, b, c) = (2^61 - 1)^2 is split as a perfect power, not by rho
        p = 2**61 - 1
        a, b, c = 2 * p * p, 3 * p * p, 5 * p * p
        argv = [sys.executable, "-m", "exptriple.cli", "enumerate", str(a), str(b), str(c)]
        done = subprocess.run(argv, env=subprocess_env(), capture_output=True,
                              text=True, timeout=10)
        assert done.returncode == 0
        lines = done.stdout.splitlines()
        assert lines[0].endswith(": 1")
        assert lines[1] == f"  {a} + {b} = {c}    [types {p}:O]"

    def test_two_large_primes_in_every_base_exit_two(self):
        # gcd(a, b, c) = pq is beyond Brent's rho budget, which stops it
        p, q = 2**61 - 1, 2**64 - 59
        argv = [sys.executable, "-m", "exptriple.cli", "enumerate",
                str(2 * p * q), str(3 * p * q), str(5 * p * q)]
        done = subprocess.run(argv, env=subprocess_env(), capture_output=True,
                              text=True, timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: cannot factor {p * q}: ")

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "5", "2",
                           "--max-bits", "64", "--format", "json-lines")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert rows[0] == {"a": 3, "b": 5, "c": 2, "x": 1, "y": 1, "z": 3,
                           "class": 1, "bound_bits": 64}
        assert all(row["bound_bits"] == 64 for row in rows)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "5", "2",
                           "--max-bits", "64", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,c,x,y,z,class,bound_bits"
        assert len(lines) == 4
        assert lines[1] == "3,5,2,1,1,3,1,64"

    def test_bound_too_small_warns_but_succeeds(self, capsys):
        code, out, err = run(capsys, "enumerate", "2", "2",
                             "12345678901234567890", "--max-bits", "8")
        assert code == 0
        assert "nothing enumerated" in err
        assert ": 0" in out

    def test_base_one_rejected_as_data(self, capsys):
        code, _, err = run(capsys, "enumerate", "1", "5", "2")
        assert code == 2

    def test_missing_argument_is_usage(self, capsys):
        code, _, err = run(capsys, "enumerate", "3", "5")
        assert code == 1
        assert "error:" in err


class TestClassify:
    def test_catalogued_anomalous_human(self, capsys):
        code, out, _ = run(capsys, "classify", "2", "6", "38",
                           "1", "2", "1", "5", "1", "1")
        assert code == 0
        assert "anomalous, catalogued" in out
        assert "2 + 6^2 = 38 and 2^5 + 6 = 38" in out

    def test_family_member_human(self, capsys):
        code, out, _ = run(capsys, "classify", "7", "49", "98",
                           "2", "1", "1", "7", "3", "3")
        assert code == 0
        assert "family III" in out

    def test_json_schema_fields(self, capsys):
        code, out, _ = run(capsys, "classify", "2", "6", "38",
                           "1", "2", "1", "5", "1", "1",
                           "--format", "json-lines")
        assert code == 0
        row = json.loads(out)
        assert tuple(row) == JSON_FIELDS
        assert row["classification"] == "anomalous"
        assert row["family"] is None
        assert row["params"] is None
        assert row["bound_bits"] is None

    def test_family_json_carries_params(self, capsys):
        code, out, _ = run(capsys, "classify", "7", "49", "98",
                           "2", "1", "1", "7", "3", "3",
                           "--format", "json-lines")
        assert code == 0
        row = json.loads(out)
        assert row["classification"] == "family"
        assert row["family"] == "III"
        assert row["params"]["g"] == 7

    def test_coprime_bases_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "3", "5", "2",
                           "1", "1", "3", "3", "1", "5")
        assert code == 2
        assert "gcd" in err

    def test_corresponding_solutions_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "7", "7", "98",
                           "6", "7", "3", "7", "6", "3")
        assert code == 2
        assert "correspond" in err

    def test_non_solution_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "2", "6", "38",
                           "1", "1", "1", "5", "1", "1")
        assert code == 2
        assert "does not solve" in err

    def test_wrong_count_is_usage(self, capsys):
        code, _, _ = run(capsys, "classify", "2", "6", "38", "1", "2", "1")
        assert code == 1


class TestFamilyGen:
    def test_iii_derives_w(self, capsys):
        code, out, _ = run(capsys, "family", "gen", "III",
                           "g=7", "j=1", "u=2", "d=1", "k=3")
        assert code == 0
        assert "(7, 49, 98)" in out
        assert "w=1" in out

    def test_iii_explicit_w_matches(self, capsys):
        code, out, _ = run(capsys, "family", "gen", "III",
                           "g=7", "j=1", "u=2", "d=1", "k=3", "w=1")
        assert code == 0
        assert "7^7 + 49^3 = 98^3" in out

    def test_iv_derives_w(self, capsys):
        code, out, _ = run(capsys, "family", "gen", "IV",
                           "g=3", "i=1", "j=1", "u=1", "d=5", "k=2")
        assert code == 0
        assert "(6, 15, 21)" in out
        assert "6^3 + 15^2 = 21^2" in out

    def test_iv_odd_d_floor_enforced(self, capsys):
        code, _, err = run(capsys, "family", "gen", "IV",
                           "g=5", "i=1", "j=1", "u=1", "d=1", "k=4", "w=1")
        assert code == 2
        assert "d must exceed 1" in err

    def test_underivable_w_rejected(self, capsys):
        code, _, err = run(capsys, "family", "gen", "III",
                           "g=7", "j=1", "u=2", "d=2", "k=3")
        assert code == 2
        assert "not a power of g" in err

    @pytest.mark.parametrize(("params", "violation"), [
        (("IV", "g=5", "d=3", "k=-2", "i=1", "j=1", "u=1"), "k must be even and positive"),
        (("IV", "g=3", "d=-1", "k=2", "i=1", "j=1", "u=1"), "d must be odd and positive"),
        (("III", "g=7", "d=1", "k=-1", "j=1", "u=1"), "k must exceed 1"),
    ])
    def test_out_of_range_d_or_k_without_w_is_named(self, capsys, params, violation):
        # the family power of such d and k is no integer, or zero
        code, out, err = run(capsys, "family", "gen", *params)
        assert (code, out, err) == (2, "", f"rejected: {violation}\n")

    @pytest.mark.parametrize(("params", "violation"), [
        (("IV", "g=5", "d=3", "k=3", "i=1", "j=1", "u=1"), "k must be even and positive"),
        (("III", "g=7", "d=1", "k=1", "j=1", "u=1"), "k must exceed 1"),
    ])
    def test_broken_range_without_w_is_named_instead_of_w(self, capsys, params, violation):
        # no w fits these family powers either, but the range is what is broken
        expected = (2, "", f"rejected: {violation}\n")
        assert run(capsys, "family", "gen", *params) == expected
        assert run(capsys, "family", "gen", *params, "w=1") == expected

    def test_wrong_parameter_names_are_usage(self, capsys):
        code, _, err = run(capsys, "family", "gen", "III", "g=7", "q=1")
        assert code == 1
        assert "takes parameters" in err

    # w is derivable at d = 1 and not at d = 2; either way the message
    # lists only the names typed, without a w filled in for them
    @pytest.mark.parametrize("d", ["d=1", "d=2"])
    def test_wrong_parameter_name_without_w_lists_what_was_typed(self, capsys, d):
        assert run(capsys, "family", "gen", "III", "g=7", "q=1", d, "k=3") == (
            1, "",
            "error: family III takes parameters ['d', 'g', 'j', 'k', 'u', 'w'], "
            "got ['d', 'g', 'k', 'q']\n",
        )

    def test_malformed_token_is_usage(self, capsys):
        code, _, err = run(capsys, "family", "gen", "III", "g7")
        assert code == 1
        assert "key=value" in err

    def test_unknown_tag_is_usage(self, capsys):
        code, _, err = run(capsys, "family", "gen", "V", "x=1")
        assert code == 1
        assert "unknown family tag" in err

    def test_json_row_is_family_classified(self, capsys):
        code, out, _ = run(capsys, "family", "gen", "III",
                           "g=7", "j=1", "u=2", "d=1", "k=3",
                           "--format", "json-lines")
        assert code == 0
        row = json.loads(out)
        assert tuple(row) == JSON_FIELDS
        assert (row["a"], row["b"], row["c"]) == (7, 49, 98)
        assert row["classification"] == "family"


class TestFamilyCheck:
    def test_anomalous_verdict(self, capsys):
        code, out, _ = run(capsys, "family", "check", "2", "6", "38",
                           "1", "2", "1", "5", "1", "1")
        assert code == 0
        assert "anomalous, catalogued" in out

    def test_family_verdict_names_parameters(self, capsys):
        code, out, _ = run(capsys, "family", "check", "7", "49", "98",
                           "2", "1", "1", "7", "3", "3")
        assert code == 0
        assert "family III" in out
        assert "g=7" in out

    def test_coprime_rejected(self, capsys):
        code, _, err = run(capsys, "family", "check", "3", "5", "2",
                           "1", "1", "3", "3", "1", "5")
        assert code == 2
        assert "shared factor" in err

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "family", "check", "7", "49", "98",
                           "2", "1", "1", "7", "3", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(JSON_FIELDS)
        assert lines[1].startswith("7,49,98,2,1,1,7,3,3,family,III,")


class TestSearchDirect:
    def test_tiny_box_json(self, capsys):
        code, out, err = run(capsys, "search", "direct", *TINY_BOX,
                             "--format", "json-lines")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 7
        assert "7 anomalous triple(s)" in err
        assert all(tuple(row) == JSON_FIELDS for row in rows)
        assert all(row["classification"] == "anomalous" for row in rows)
        assert rows[0] == {"a": 2, "b": 6, "c": 38, "x1": 1, "y1": 2, "z1": 1,
                           "x2": 5, "y2": 1, "z2": 1,
                           "classification": "anomalous", "family": None,
                           "params": None, "bound_bits": 64}

    def test_worker_count_never_changes_stdout(self, capsys):
        _, base, _ = run(capsys, "search", "direct", *TINY_BOX,
                         "--format", "json-lines")
        _, multi, _ = run(capsys, "search", "direct", *TINY_BOX,
                          "--format", "json-lines", "--workers", "3")
        assert multi == base

    def test_checkpoint_resume(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        _, base, _ = run(capsys, "search", "direct", *TINY_BOX,
                         "--format", "json-lines", "--checkpoint", str(journal))
        assert journal.exists()
        _, again, _ = run(capsys, "search", "direct", *TINY_BOX,
                          "--format", "json-lines", "--checkpoint", str(journal))
        assert again == base

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unusable_checkpoint_path_is_an_input_error(self, capsys, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "absent" / "run.jsonl"
        code, out, err = run(capsys, "search", "direct", "--g-max", "3", "--a1-max", "2",
                             "--b1-max", "5", "--exp-max", "2", "--checkpoint", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: cannot use checkpoint {path}: " + (
            "Is a directory" if where == "directory" else "No such file or directory"
        )]
        assert not (tmp_path / "absent").exists()

    def test_discarded_checkpoint_warns_on_stderr(self, capsys, tmp_path):
        _, base, _ = run(capsys, "search", "direct", *TINY_BOX, "--format", "json-lines")
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"box": [6, 6, 60, 5], "done": [], "rows": []}')
        code, out, err = run(capsys, "search", "direct", *TINY_BOX,
                             "--format", "json-lines", "--checkpoint", str(journal))
        assert code == 0
        assert out == base
        warned = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warned) == 1
        assert "not a version 1 checkpoint journal" in warned[0]
        # the fresh journal it wrote resumes without a warning
        _, again, err = run(capsys, "search", "direct", *TINY_BOX,
                            "--format", "json-lines", "--checkpoint", str(journal))
        assert again == base
        assert "warning:" not in err

    def test_killed_run_resumes_to_identical_stdout(self, tmp_path):
        # 2,143 cells; one worker scans them in about 1.5 s
        box = ["--g-max", "60", "--a1-max", "60", "--b1-max", "12", "--exp-max", "3"]
        argv = [sys.executable, "-m", "exptriple.cli", "search", "direct", *box,
                "--format", "json-lines"]
        env = subprocess_env()
        journal = tmp_path / "run.jsonl"

        victim = subprocess.Popen([*argv, "--checkpoint", str(journal)], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and victim.poll() is None:
                if journal.exists() and journal.read_bytes().count(b"\n") > 100:
                    break
                time.sleep(0.005)
            victim.kill()
        finally:
            victim.wait(timeout=30)
        journaled = journal.read_bytes().count(b"\n") - 1
        assert victim.returncode == -signal.SIGKILL
        assert 100 <= journaled < 2143

        whole = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        resumed = subprocess.run([*argv, "--checkpoint", str(journal)], env=env,
                                 capture_output=True, timeout=120, check=True)
        assert resumed.stdout == whole.stdout
        assert b"warning:" not in resumed.stderr
        cells = [tuple(json.loads(line)[:2]) for line in journal.read_text().splitlines()[1:]]
        assert len(cells) == len(set(cells)) == 2143

    def test_zero_workers_is_usage(self, capsys):
        code, _, err = run(capsys, "search", "direct", "--workers", "0")
        assert code == 1
        assert "positive" in err

    def test_g_max_below_two_names_the_flag(self, capsys):
        code, out, err = run(capsys, "search", "direct", "--g-max", "1")
        assert code == 1
        assert out == ""
        assert "argument --g-max: must be at least 2, got 1" in err

    def test_human_rows_name_the_catalogue(self, capsys):
        code, out, _ = run(capsys, "search", "direct", *TINY_BOX)
        assert code == 0
        assert "(2, 6, 38): 2 + 6^2 = 38 and 2^5 + 6 = 38  [anomalous, catalogued]" in out


class TestSearchPipeline:
    CLEAN = "16 3 19\n1 18 19\n3 2 5\n1 24 25\n"

    def test_file_input_finds_both(self, capsys, tmp_path):
        path = tmp_path / "eqs.txt"
        path.write_text(self.CLEAN, encoding="utf-8")
        code, out, err = run(capsys, "search", "pipeline", str(path))
        assert code == 0
        assert "(2, 6, 38)" in out
        assert "(3, 6, 15)" in out
        assert "pipeline: 8 candidate pairing(s), 3 solved system(s), 2 anomalous triple(s)\n" in err

    def test_diagnostics_carry_line_numbers(self, capsys, tmp_path):
        path = tmp_path / "eqs.txt"
        path.write_text("16 3 19\n\n# note\nbad line of four tokens\n1 18 19\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "search", "pipeline", str(path))
        assert code == 0
        assert f"{path}:4: expected three integers" in err
        assert "1 line(s) rejected" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "search", "pipeline", "missing.txt")
        assert code == 2
        assert "cannot read" in err

    def test_unusable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("only words here\n4 2 6\n", encoding="utf-8")
        code, _, err = run(capsys, "search", "pipeline", str(path))
        assert code == 2
        assert "no usable equations" in err

    def test_file_and_generation_conflict(self, capsys, tmp_path):
        path = tmp_path / "eqs.txt"
        path.write_text(self.CLEAN, encoding="utf-8")
        code, _, err = run(capsys, "search", "pipeline", str(path),
                           "--gen-rad", "50")
        assert code == 1
        assert "not both" in err

    @pytest.mark.parametrize(
        ("flag", "value", "low"), [("--gen-rad", "5", 6), ("--gen-height", "1", 2)]
    )
    def test_generation_bound_too_small_names_the_flag(self, capsys, flag, value, low):
        code, out, err = run(capsys, "search", "pipeline", flag, value)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: must be at least {low}, got {value}" in err

    def test_generated_equations(self, capsys):
        code, out, err = run(capsys, "search", "pipeline",
                             "--gen-rad", "30", "--gen-height", "1000")
        assert code == 0
        assert "generated" in err
        assert "(3, 6, 15)" in out

    def test_file_of_the_generated_equations_prints_what_generation_prints(
        self, capsys, tmp_path
    ):
        records = search_module.generate_equations(1000, 10**6)
        path = tmp_path / "eqs.txt"
        path.write_text("".join(f"{r.A} {r.B} {r.C}\n" for r in records), encoding="utf-8")
        code, from_file, _ = run(capsys, "search", "pipeline", str(path))
        assert code == 0
        code, generated, _ = run(capsys, "search", "pipeline",
                                 "--gen-rad", "1000", "--gen-height", "1000000")
        assert code == 0
        assert len(records) == 354
        assert from_file.count("anomalous") == 6
        assert from_file == generated

    def test_json_rows_match_schema(self, capsys, tmp_path):
        path = tmp_path / "eqs.txt"
        path.write_text(self.CLEAN, encoding="utf-8")
        code, out, _ = run(capsys, "search", "pipeline", str(path),
                           "--format", "json-lines")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["a"], r["b"], r["c"]) for r in rows] == [(2, 6, 38), (3, 6, 15)]
        assert all(tuple(row) == JSON_FIELDS for row in rows)

    def test_invariant_failure_on_huge_bases_exits_three(self, capsys, tmp_path,
                                                         monkeypatch):
        # a solved system that does not fit its shapes, with bases far too
        # long to print in decimal
        bad = search_module.SolvedSystem(alpha=1, beta=1, gamma=190_000,
                                         x1=5, x2=1)
        monkeypatch.setattr(search_module, "pair_and_solve",
                            lambda s53, s54: (bad, None))
        path = tmp_path / "eqs.txt"
        path.write_text("16 3 19\n1 18 19\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "pipeline", str(path))
        assert code == 3
        assert out == ""
        assert "internal invariant violated: reconstructed solution" in err

    def test_family_verdict_exits_three(self, capsys, tmp_path, monkeypatch):
        # a verified pair is never a family member; one that were would be a fault
        verdict = classify_nine(gen_family("I", {"u": 1, "h": 2}))
        monkeypatch.setattr(search_module, "classify_nine", lambda nine: verdict)
        path = tmp_path / "eqs.txt"
        path.write_text(self.CLEAN, encoding="utf-8")
        code, out, err = run(capsys, "search", "pipeline", str(path))
        assert code == 3
        assert out == ""
        assert "not an anomalous Type A / Type B pair" in err


class TestMachineFormats:
    """csv carries the json-lines rows cell for cell, under the JSON_FIELDS header."""

    @staticmethod
    def _cell(field, value):
        if value is None:
            return ""
        return cli_module._params_str(value) if field == "params" else str(value)

    @pytest.mark.parametrize("argv", [
        ("classify", "2", "6", "38", "1", "2", "1", "5", "1", "1"),
        ("classify", "7", "49", "98", "2", "1", "1", "7", "3", "3"),
        ("family", "gen", "III", "g=7", "j=1", "u=2", "d=1", "k=3"),
        ("family", "check", "7", "49", "98", "2", "1", "1", "7", "3", "3"),
        ("search", "direct", *TINY_BOX),
        ("search", "pipeline", "--gen-rad", "1000", "--gen-height", "1000000"),
    ], ids=["classify-anomalous", "classify-family", "family-gen", "family-check",
            "search-direct", "search-pipeline"])
    def test_csv_rows_are_the_json_rows(self, capsys, argv):
        code, as_json, _ = run(capsys, *argv, "--format", "json-lines")
        assert code == 0
        code, as_csv, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *lines = csv.reader(as_csv.splitlines())
        assert tuple(header) == JSON_FIELDS
        rows = [json.loads(line) for line in as_json.splitlines()]
        assert rows
        assert lines == [[self._cell(k, row[k]) for k in JSON_FIELDS] for row in rows]


class TestDefaults:
    def test_environment_changes_nothing(self, capsys, monkeypatch):
        _, plain, _ = run(capsys, "enumerate", "3", "5", "2")
        monkeypatch.setenv("EXPTRIPLE_FORMAT", "csv")
        monkeypatch.setenv("EXPTRIPLE_MAX_BITS", "64")
        code, out, _ = run(capsys, "enumerate", "3", "5", "2")
        assert code == 0
        assert out == plain

    def test_max_bits_defaults_to_128(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "5", "2", "--format", "json-lines")
        assert code == 0
        assert {json.loads(line)["bound_bits"] for line in out.splitlines()} == {128}

    def test_pipeline_generation_defaults(self, capsys):
        code, _, err = run(capsys, "search", "pipeline")
        assert code == 0
        assert "radical <= 100 and height <= 10000" in err

    def test_direct_search_defaults(self, capsys, monkeypatch):
        seen = {}

        def fake_search(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(cli_module, "direct_search", fake_search)
        code, out, _ = run(capsys, "search", "direct")
        assert code == 0
        assert out == ""
        assert seen == {"bounds": SearchBounds(), "max_bits": 128, "workers": 1,
                        "checkpoint": None}


class TestVerifySubcommand:
    @staticmethod
    def _patch(monkeypatch, second_passes):
        from exptriple import acceptance
        results = {
            1: CheckResult(1, "first", True, "fine", 0.0),
            2: CheckResult(2, "second", second_passes,
                           "fine" if second_passes else "broken", 0.0),
        }
        monkeypatch.setattr(acceptance, "CHECKS",
                            ((1, "first", None), (2, "second", None)))
        monkeypatch.setattr(acceptance, "run_check", lambda n: results[n])

    def test_all_pass_exits_zero(self, capsys, monkeypatch):
        self._patch(monkeypatch, second_passes=True)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "PASS criterion 1" in out
        assert "2/2 criteria passed" in out

    def test_failure_exits_four(self, capsys, monkeypatch):
        self._patch(monkeypatch, second_passes=False)
        code, out, _ = run(capsys, "verify")
        assert code == 4
        assert "FAIL criterion 2" in out
        assert "1/2 criteria passed" in out


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out, _ = capsys.readouterr()
        assert "enumerate" in out

    def test_no_command_is_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1


class TestClosedStdout:
    """A reader that stops reading ends the run with 141 and no traceback."""

    ARGV = [sys.executable, "-m", "exptriple.cli", "enumerate"]

    def test_pipe_closed_before_any_output(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([*self.ARGV, "2", "6", "38"], env=subprocess_env(),
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=30)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_pipe_closed_mid_stream(self):
        # about 100 KB of output, more than a pipe holds, so the run is
        # still writing when the reader goes away after the first line
        argv = [*self.ARGV, "4", "8", "32", "--max-bits", "40000"]
        with subprocess.Popen(argv, env=subprocess_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=30)
        assert first == b"solutions of 4^x + 8^y = 32^z below 2^40000: 1333\n"
        assert (code, err) == (141, b"")
