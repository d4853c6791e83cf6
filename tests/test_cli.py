import argparse
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import condaudit
from condaudit import AssertionSet, cli, import_assertions, parse_native, serialize_election
from condaudit.cli import main

from oracles import expand, random_election

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def e1_path(tmp_path, election1):
    p = tmp_path / "election1.json"
    p.write_text(serialize_election(election1))
    return str(p)


@pytest.fixture
def e3_path(tmp_path, election3):
    p = tmp_path / "election3.json"
    p.write_text(serialize_election(election3))
    return str(p)


@pytest.fixture
def tie_path(tmp_path, smith_tie_election):
    p = tmp_path / "tie.json"
    p.write_text(serialize_election(smith_tie_election))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_native_summary(self, capsys, e1_path):
        code, out, _ = run_cli(capsys, "parse", e1_path)
        assert code == 0
        assert "Total ballots: 8300" in out

    def test_preflib_with_scale(self, capsys, tmp_path):
        p = tmp_path / "e.soi"
        p.write_text("# NUMBER ALTERNATIVES: 2\n3: 1,2\n")
        code, out, _ = run_cli(capsys, "parse", str(p), "--scale", "10", "--format", "json")
        assert code == 0
        assert json.loads(out)["total_ballots"] == 30

    def test_warning_that_no_line_holds(self, capsys, tmp_path):
        # A native file's ballots are not lines: the warning's line is null in JSON and left out of the text.
        p = tmp_path / "repeated.json"
        p.write_text(json.dumps({"candidates": ["A", "B"], "ballots": [{"ranking": ["A"], "count": 1}] * 2}))
        message = "ballots[1]: duplicate signature; counts merged"
        code, out, _ = run_cli(capsys, "parse", str(p), "--format", "json")
        assert (code, json.loads(out)["warnings"]) == (0, [{"line": None, "message": message}])
        assert run_cli(capsys, "parse", str(p))[1].endswith(f"\nwarning: {message}\n")

    def test_parse_error_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.soi"
        p.write_text("# NUMBER ALTERNATIVES: 2\n2: 1,1,2\n")
        code, _, err = run_cli(capsys, "parse", str(p))
        assert code == 2
        assert "line 2" in err


class TestTabulate:
    def test_ranked_pairs_election3(self, capsys, e3_path):
        code, out, _ = run_cli(capsys, "tabulate", "--method", "ranked-pairs", e3_path)
        assert code == 0
        assert "Winner: A" in out
        assert "B > D  (13000)" in out
        assert "A > D  via  A > B, B > D" in out

    def test_irv_election3(self, capsys, e3_path):
        code, out, _ = run_cli(capsys, "tabulate", "--method", "irv", e3_path)
        assert code == 0
        assert "Winner: B" in out
        assert "Eliminated: D, A" in out

    def test_condorcet_none(self, capsys, e3_path):
        code, out, _ = run_cli(capsys, "tabulate", "--method", "condorcet", e3_path)
        assert code == 0
        assert "none" in out

    def test_minimax_smith_kemeny(self, capsys, e3_path):
        for method, needle in [
            ("minimax", "Winner: C"),
            ("smith-minimax", "Smith set: {A, B, C, D}"),
            ("smith-irv", "Winner: B (IRV over the Smith set)"),
            ("kemeny", "Best ranking: A > B > C > D  (score 98000)"),
        ]:
            code, out, _ = run_cli(capsys, "tabulate", "--method", method, e3_path)
            assert code == 0
            assert needle in out

    def test_smith_irv_tie_warning(self, capsys, tmp_path):
        # IRV over the Smith set {A, B, D} breaks an elimination tie by candidate order.
        profile = {(1, 3, 0, 2): 21, (1, 0, 2, 3): 28, (): 77, (3, 1, 0): 3, (0, 3, 1): 44, (3, 1, 0, 2): 43,
                   (2, 0, 3, 1): 2}
        path = tmp_path / "irv_tie.json"
        path.write_text(serialize_election(condaudit.Election(tuple("ABCD"), profile)))
        code, out, _ = run_cli(capsys, "tabulate", str(path), "--method", "smith-irv")
        assert code == 0
        assert out.endswith(
            "Winner: D (IRV over the Smith set)\nWarning: an elimination tie was broken by candidate order\n"
        )
        code, out, _ = run_cli(capsys, "tabulate", str(path), "--method", "smith-irv", "--format", "json")
        assert code == 0
        assert set(json.loads(out)) == {"method", "winner", "smith_set", "tie_flag", "inner_defeats"}

    def test_json_matches_text_winner(self, capsys, e3_path):
        _, out, _ = run_cli(capsys, "tabulate", "--method", "ranked-pairs", e3_path, "--format", "json")
        doc = json.loads(out)
        assert doc["winner"] == "A"
        assert [c["score"] for c in doc["commits"]] == [13000, 9000, 5000]

    def test_unknown_method_is_usage_error(self, capsys, e3_path):
        with pytest.raises(SystemExit) as exc:
            main(["tabulate", "--method", "borda", e3_path])
        assert exc.value.code == 64

    @pytest.mark.parametrize("command", ["tabulate", "assertions"])
    def test_method_is_required(self, capsys, e3_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, e3_path])
        assert exc.value.code == 64
        assert "--method" in capsys.readouterr().err

    def test_winner_matches_assertion_set(self, capsys, tmp_path):
        # Whenever a generated set does not escalate, it certifies the tabulated winner;
        # smith-minimax reports no winner exactly when its set escalates.  k <= 5 keeps
        # the Kemeny sets (k! - 1 rankings) small enough to print fast.
        rng = np.random.default_rng(20261018)
        path = tmp_path / "random.json"
        for _ in range(100):
            path.write_text(serialize_election(random_election(rng, max_k=5)))
            for method in ("condorcet", "ranked-pairs", "minimax", "smith-minimax", "kemeny"):
                code, tab, _ = run_cli(capsys, "tabulate", str(path), "--method", method, "--format", "json")
                assert code == 0
                code, doc, _ = run_cli(capsys, "assertions", str(path), "--method", method)
                assert code == 0
                winner, aset = json.loads(tab)["winner"], json.loads(doc)
                escalates = any(a["type"] == "full_hand_count" for a in aset["assertions"])
                if method == "smith-minimax":
                    assert (winner is None) == escalates
                if not escalates:
                    assert winner == aset["winner"]


class TestAssertions:
    def test_round_trips_through_import(self, capsys, e3_path, election3):
        code, out, _ = run_cli(capsys, "assertions", "--method", "ranked-pairs", e3_path)
        assert code == 0
        aset = import_assertions(out, election3)
        assert aset.method == "ranked-pairs"
        assert len(aset.assertions) == 5

    def test_writes_output_file(self, capsys, tmp_path, e3_path):
        out_path = tmp_path / "set.json"
        code, out, _ = run_cli(
            capsys, "assertions", "--method", "ranked-pairs", e3_path, "-o", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["winner"] == "A"

    def test_escalated_set_is_written_as_one_entry(self, capsys, tmp_path, tie_path):
        out_path = tmp_path / "set.json"
        code, out, _ = run_cli(capsys, "assertions", "--method", "smith-minimax", tie_path, "-o", str(out_path))
        assert (code, out) == (0, f"wrote a full-hand-count escalation to {out_path}\n")
        assert json.loads(out_path.read_text())["assertions"] == [
            {"type": "full_hand_count", "reason": "pairwise tie within the Smith set"}
        ]

    def test_output_file_count_is_plural(self, capsys, tmp_path, e1_path):
        out_path = tmp_path / "set.json"
        code, out, _ = run_cli(capsys, "assertions", "--method", "condorcet", e1_path, "-o", str(out_path))
        assert (code, out) == (0, f"wrote 2 assertions to {out_path}\n")
        assert len(json.loads(out_path.read_text())["assertions"]) == 2

    def test_output_file_count_is_singular(self, capsys, tmp_path):
        # Every one-entry golden set is an escalation; two candidates give one claim.
        election_path = tmp_path / "two.json"
        election_path.write_text(serialize_election(condaudit.Election(("A", "B"), {(0,): 3, (1,): 1})))
        out_path = tmp_path / "set.json"
        code, out, _ = run_cli(capsys, "assertions", "--method", "condorcet", str(election_path), "-o", str(out_path))
        assert (code, out) == (0, f"wrote 1 assertion to {out_path}\n")
        assert json.loads(out_path.read_text())["assertions"] == [
            {"type": "pairwise_positive", "winner": "A", "loser": "B"}
        ]

    def test_format_is_not_an_option(self, capsys, e3_path):
        # The assertion set is always written as JSON.
        with pytest.raises(SystemExit) as exc:
            main(["assertions", e3_path, "--method", "ranked-pairs", "--format", "text"])
        assert exc.value.code == 64
        assert "unrecognized arguments: --format text" in capsys.readouterr().err

    def test_irv_generation_refused(self, capsys, e3_path):
        code, _, err = run_cli(capsys, "assertions", "--method", "irv", e3_path)
        assert code == 64
        assert "import" in err

    def test_smith_irv_needs_inner_file(self, capsys, e3_path):
        code, _, err = run_cli(capsys, "assertions", "--method", "smith-irv", e3_path)
        assert code == 64
        assert "--assertions-file" in err

    @pytest.mark.parametrize("command", ["assertions", "estimate"])
    def test_assertions_file_only_with_smith_irv(self, capsys, tmp_path, e3_path, command):
        set_path = tmp_path / "set.json"
        set_path.write_text("{}")
        code, out, err = run_cli(
            capsys, command, e3_path, "--method", "ranked-pairs", "--assertions-file", str(set_path)
        )
        assert code == 64
        assert out == ""
        assert "smith-irv" in err

    def test_smith_irv_with_inner_file(self, capsys, tmp_path, e3_path, election3):
        inner = {
            "method": "irv",
            "winner": "B",
            "assertions": [
                {"type": "pairwise_positive", "winner": "B", "loser": "C"},
            ],
        }
        inner_path = tmp_path / "inner.json"
        inner_path.write_text(json.dumps(inner))
        code, out, _ = run_cli(
            capsys, "assertions", "--method", "smith-irv", e3_path,
            "--assertions-file", str(inner_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "smith-irv"
        assert doc["winner"] == "B"

    @pytest.mark.parametrize(
        "inner",
        [
            {"method": "irv", "winner": ["A"], "assertions": []},
            {"method": "irv", "winner": {"a": 1}, "assertions": []},
            {"method": "irv", "winner": "B", "assertions": [{"type": "full_hand_count", "reason": [1]}]},
        ],
        ids=["winner-as-list", "winner-as-object", "reason-as-list"],
    )
    def test_malformed_inner_file_is_input_error(self, capsys, tmp_path, e3_path, inner):
        inner_path = tmp_path / "inner.json"
        inner_path.write_text(json.dumps(inner))
        code, out, err = run_cli(
            capsys, "assertions", "--method", "smith-irv", e3_path, "--assertions-file", str(inner_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("command", ["assertions", "estimate"])
    @pytest.mark.parametrize(
        "election, message",
        [
            # IRV over election3's Smith set elects B, so a true claim for A certifies nothing.
            ("e3_path", "imported inner assertions certify a winner other than IRV over the Smith set"),
            # election1's Smith set is {A}: B is not a member.
            ("e1_path", "imported inner assertions must be over Smith-set members only"),
        ],
        ids=["another-winner", "non-member"],
    )
    def test_smith_irv_inner_file_faults_are_input_errors(self, capsys, tmp_path, request, election, message,
                                                          command):
        inner = {"method": "irv", "winner": "A",
                 "assertions": [{"type": "pairwise_positive", "winner": "A", "loser": "B"}]}
        inner_path = tmp_path / "inner.json"
        inner_path.write_text(json.dumps(inner))
        trials = ["--trials", "3"] if command == "estimate" else []
        code, out, err = run_cli(
            capsys, command, request.getfixturevalue(election), "--method", "smith-irv",
            "--assertions-file", str(inner_path), *trials,
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestEstimate:
    def test_comparison_table(self, capsys, e3_path):
        code, out, _ = run_cli(
            capsys, "estimate", "--method", "ranked-pairs", e3_path,
            "--style", "comparison", "--trials", "50", "--seed", "7",
        )
        assert code == 0
        assert "Overall" in out and "0.71%" in out

    def test_text_and_json_numbers_match(self, capsys, e3_path):
        args = [
            "estimate", "--method", "ranked-pairs", e3_path,
            "--style", "comparison", "--trials", "50", "--seed", "7",
        ]
        _, text_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        doc = json.loads(json_out)
        assert doc["overall_asn"] == 206
        for row in doc["per_assertion"]:
            assert f"{row['asn']:>8}" in text_out
            assert f"{row['pct']:>7.2f}%" in text_out

    def test_full_hand_count_renders_infinity_and_exits_1(self, capsys, tie_path):
        code, out, _ = run_cli(
            capsys, "estimate", "--method", "smith-minimax", tie_path, "--trials", "5"
        )
        assert code == 1
        assert "∞" in out

    def test_imported_set(self, capsys, tmp_path, e1_path):
        doc = {
            "method": "condorcet",
            "winner": "A",
            "assertions": [
                {"type": "pairwise_positive", "winner": "A", "loser": "B"},
                {"type": "pairwise_positive", "winner": "A", "loser": "C"},
            ],
        }
        set_path = tmp_path / "imported.json"
        set_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "estimate", e1_path, "--assertions-file", str(set_path),
            "--trials", "20", "--seed", "1", "--style", "comparison",
        )
        assert code == 0
        assert "condorcet" in out

    def test_escalated_file_naming_a_winner_is_input_error(self, capsys, tmp_path, e3_path):
        doc = {"method": "irv", "winner": "B", "assertions": [{"type": "full_hand_count", "reason": "x"}]}
        set_path = tmp_path / "escalated.json"
        set_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "estimate", e3_path, "--assertions-file", str(set_path))
        assert (code, out) == (2, "")
        assert err == "error: a full-hand-count set names no winner\n"

    def test_needs_method_or_file(self, capsys, e1_path):
        code, _, err = run_cli(capsys, "estimate", e1_path)
        assert code == 64


class TestAudit:
    def make_sample_file(self, tmp_path, election, count, seed=123):
        pop = expand(election)
        order = np.random.default_rng(seed).permutation(len(pop))[:count]
        lines = []
        for i in order:
            names = [election.candidates[c] for c in pop[i]]
            lines.append(json.dumps({"reported": names, "audited": names}))
        path = tmp_path / "samples.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_error_free_comparison_audit_certifies(self, capsys, tmp_path, e3_path, election3):
        _, set_json, _ = run_cli(capsys, "assertions", "--method", "ranked-pairs", e3_path)
        set_path = tmp_path / "set.json"
        set_path.write_text(set_json)
        samples = self.make_sample_file(tmp_path, election3, 2000)
        code, out, _ = run_cli(
            capsys, "audit", e3_path, "--assertions-file", str(set_path),
            "--samples-file", samples, "--style", "comparison",
        )
        assert code == 0
        assert "Outcome: certified" in out

    def test_insufficient_sample_escalates(self, capsys, tmp_path, e3_path, election3):
        _, set_json, _ = run_cli(capsys, "assertions", "--method", "ranked-pairs", e3_path)
        set_path = tmp_path / "set.json"
        set_path.write_text(set_json)
        samples = self.make_sample_file(tmp_path, election3, 20)
        code, out, _ = run_cli(
            capsys, "audit", e3_path, "--assertions-file", str(set_path),
            "--samples-file", samples, "--style", "comparison",
        )
        assert code == 1
        assert "escalate-full-count" in out

    @pytest.mark.parametrize("style", ["polling", "comparison"])
    def test_overlong_samples_file_is_parse_error(self, capsys, tmp_path, tie_path, style):
        _, set_json, _ = run_cli(capsys, "assertions", "--method", "kemeny", tie_path)
        set_path = tmp_path / "set.json"
        set_path.write_text(set_json)
        # Seven samples of an election of six ballots; the leading blank line is not a sample.
        samples = tmp_path / "samples.jsonl"
        line = json.dumps({"reported": ["A", "C", "B"], "audited": ["A", "C", "B"]})
        samples.write_text("\n" + "\n".join([line] * 7) + "\n")
        code, out, err = run_cli(
            capsys, "audit", tie_path, "--assertions-file", str(set_path),
            "--samples-file", str(samples), "--style", style,
        )
        assert code == 2 and out == ""
        assert err == "error: line 8: more samples than the 6 ballots of the election\n"

    def test_comparison_sample_without_reported_is_input_error(self, capsys, tmp_path):
        golden = Path(__file__).parent / "golden"
        lines = (golden / "election3-samples.jsonl").read_text().splitlines()
        samples = tmp_path / "audited-only.jsonl"
        samples.write_text("".join(json.dumps({"audited": json.loads(ln)["audited"]}) + "\n" for ln in lines))
        code, out, err = run_cli(
            capsys, "audit", str(golden / "election3.json"), "--style", "comparison",
            "--assertions-file", str(golden / "election3.ranked-pairs.assertions.out"),
            "--samples-file", str(samples),
        )
        assert (code, out) == (2, "")
        assert err == "error: comparison audits need a reported ballot per sample\n"

    def test_comparison_sample_after_the_stop_without_reported_is_input_error(self, capsys, tmp_path):
        golden = Path(__file__).parent / "golden"
        argv = [
            "audit", str(golden / "election3.json"), "--style", "comparison",
            "--assertions-file", str(golden / "election3.ranked-pairs.assertions.out"),
        ]
        code, out, _ = run_cli(capsys, *argv, "--samples-file", str(golden / "election3-samples.jsonl"))
        assert code == 0 and "Ballots examined: 141" in out
        lines = (golden / "election3-samples.jsonl").read_text().splitlines()
        lines[299] = json.dumps({"audited": json.loads(lines[299])["audited"]})  # line 300, after the stop
        samples = tmp_path / "samples.jsonl"
        samples.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, *argv, "--samples-file", str(samples))
        assert (code, out) == (2, "")
        assert err == "error: comparison audits need a reported ballot per sample\n"

    def test_digest_mismatch_is_schema_error(self, capsys, tmp_path, e1_path, e3_path, election3):
        _, set_json, _ = run_cli(capsys, "assertions", "--method", "condorcet", e1_path)
        set_path = tmp_path / "set.json"
        set_path.write_text(set_json)
        samples = self.make_sample_file(tmp_path, election3, 5)
        code, _, err = run_cli(
            capsys, "audit", e3_path, "--assertions-file", str(set_path),
            "--samples-file", samples,
        )
        assert code == 2
        assert "digest" in err


@pytest.mark.parametrize("flag", ["election", "--assertions-file", "--samples-file", "--output"])
def test_unreadable_path_is_usage_error(capsys, tmp_path, e3_path, flag):
    set_path = str(tmp_path / "set.json")
    assert run_cli(capsys, "assertions", e3_path, "--method", "ranked-pairs", "-o", set_path)[0] == 0
    missing = str(tmp_path / "no-such-dir" / "file.json")
    argv = {
        "election": ["parse", missing],
        "--assertions-file": ["estimate", e3_path, "--assertions-file", missing],
        "--samples-file": ["audit", e3_path, "--assertions-file", set_path, "--samples-file", missing],
        "--output": ["assertions", e3_path, "--method", "ranked-pairs", "-o", missing],
    }[flag]
    code, _, err = run_cli(capsys, *argv)
    assert code == 64
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["election", "--samples-file", "--assertions-file"])
def test_non_utf8_input_is_parse_error(capsys, tmp_path, e3_path, flag):
    set_path = str(tmp_path / "set.json")
    assert run_cli(capsys, "assertions", e3_path, "--method", "ranked-pairs", "-o", set_path)[0] == 0
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    argv = {
        "election": ["parse", str(bad)],
        "--samples-file": ["audit", e3_path, "--assertions-file", set_path, "--samples-file", str(bad)],
        "--assertions-file": ["estimate", e3_path, "--assertions-file", str(bad)],
    }[flag]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


BAD_NAME_LISTS = {
    "nested-list": [["A"]],
    "number": [1],
    "null": [None],
    "bare-string": "A",
    "repeated": ["A", "A"],
    "unknown": ["Z"],
}


@pytest.mark.parametrize("names", BAD_NAME_LISTS.values(), ids=BAD_NAME_LISTS)
@pytest.mark.parametrize("flag", ["election", "--samples-file", "--assertions-file"])
def test_malformed_candidate_names_are_parse_errors(capsys, tmp_path, e3_path, flag, names):
    set_path = tmp_path / "set.json"
    assert run_cli(capsys, "assertions", e3_path, "--method", "ranked-pairs", "-o", str(set_path))[0] == 0
    samples = tmp_path / "samples.jsonl"
    samples.write_text(json.dumps({"audited": ["A", "B"]}) + "\n")
    election = e3_path
    if flag == "election":
        election = str(tmp_path / "bad.json")
        Path(election).write_text(json.dumps({"candidates": ["A", "B"], "ballots": [{"ranking": names, "count": 1}]}))
    elif flag == "--samples-file":
        samples.write_text(json.dumps({"audited": names}) + "\n")
    else:
        entry = {"type": "score_comparison", "hi": names, "lo": ["B", "C"]}
        set_path.write_text(json.dumps({"method": "custom", "winner": "A", "assertions": [entry]}))
    code, out, err = run_cli(
        capsys, "audit", election, "--assertions-file", str(set_path), "--samples-file", str(samples)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "header, message",
    [
        ("# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: A\n# ALTERNATIVE NAME 2: A\n",
         "duplicate candidate name 'A'"),
        ("# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 3: C\n", "line 2: ALTERNATIVE NAME 3 out of range 1..2"),
        ("# ALTERNATIVE NAME 3: C\n", "line 1: ALTERNATIVE NAME 3 out of range 1..2"),
        ("# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: A\n# ALTERNATIVE NAME 1: B\n",
         "line 3: ALTERNATIVE NAME 1 repeats line 2"),
    ],
    ids=["duplicate-name", "number-above-declared", "number-above-inferred", "repeated-number"],
)
def test_preflib_roster_faults_are_parse_errors(capsys, tmp_path, header, message):
    path = tmp_path / "roster.soi"
    path.write_text(header + "1: 1,2\n")
    code, out, err = run_cli(capsys, "parse", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
INPUT_FAULTS = {
    "native-top-level": ("e.json", '["A"]', "top-level value must be an object"),
    "native-candidates": ("e.json", '{"candidates": "AB", "ballots": []}', "'candidates' must be a list of names"),
    "native-ballots": ("e.json", '{"candidates": ["A"], "ballots": {}}', "'ballots' must be a list"),
    "native-ballot-entry": ("e.json", '{"candidates": ["A"], "ballots": [["A"]]}', "ballots[0] must be an object"),
    "preflib-no-colon": ("e.soi", "# NUMBER ALTERNATIVES: 2\n3 1,2\n", "line 2: expected 'count: c1,c2,...'"),
    "preflib-empty-field": ("e.soi", "# NUMBER ALTERNATIVES: 2\n3: 1,,2\n", "line 2: empty candidate field in ranking"),
    "preflib-count-spelling": (
        "e.soi", "# NUMBER ALTERNATIVES: 2\n1_0: 1,2\n+3: 2\n", "line 2: malformed vote count: '1_0'"
    ),
    "preflib-near-miss-key": (
        "e.soi", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME1: Alice\n# ALTERNATIVE NAME 2: Bob\n3: 1,2\n",
        "line 2: malformed header key 'ALTERNATIVE NAME1'",
    ),
    # Runs of whitespace, "_" and "-" in a key read as one space: none of these is a comment.
    "preflib-near-miss-hyphen": (
        "e.soi", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME-1: Alice\n3: 1,2\n",
        "line 2: malformed header key 'ALTERNATIVE NAME-1'",
    ),
    "preflib-near-miss-underscore": (
        "e.soi", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE_NAME 1: Alice\n3: 1,2\n",
        "line 2: malformed header key 'ALTERNATIVE_NAME 1'",
    ),
    "preflib-near-miss-two-spaces": (
        "e.soi", "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE  NAME 1: Alice\n3: 1,2\n",
        "line 2: malformed header key 'ALTERNATIVE  NAME 1'",
    ),
    "set-invalid-json": ("set.json", "not json", "line 1: invalid JSON: Expecting value"),
    "set-not-an-object": ("set.json", "[]", "assertion document must be an object"),
    "set-method": ("set.json", '{"method": 3, "assertions": []}', "'method' must be a string"),
    "set-assertions": ("set.json", '{"method": "x", "assertions": {}}', "'assertions' must be a list"),
    "set-entry": ("set.json", '{"method": "x", "assertions": ["s(A,B) > 0"]}', "each assertion must be an object"),
    "set-entry-field": (
        "set.json", '{"method": "x", "winner": "A", "assertions": [{"type": "pairwise_positive", "winner": "A"}]}',
        "malformed pairwise_positive entry: 'loser'",
    ),
    "set-metadata": ("set.json", '{"method": "x", "assertions": [], "metadata": []}', "'metadata' must be an object"),
    "set-no-winner": ("set.json", '{"method": "x", "winner": null, "assertions": []}',
                      "a set that does not escalate names its winner"),
    "samples-audited": (
        "s.jsonl", '{"audited": ["A"]}\n{"reported": ["A"]}\n', "line 2: each sample needs an 'audited' ballot"
    ),
    # A key given twice, which would otherwise keep its last value.
    "native-repeated-ballots": (
        "e.json", '{"candidates": ["A", "B"], "ballots": [{"ranking": ["A"], "count": 5}], "ballots": []}',
        "repeated key 'ballots'",
    ),
    "native-repeated-count": (
        "e.json", '{"candidates": ["A", "B"], "ballots": [{"ranking": ["A"], "count": 1, "count": 7}]}',
        "repeated key 'count'",
    ),
    "set-repeated-key": ("set.json", '{"method": "x", "method": "y", "assertions": []}', "repeated key 'method'"),
    "samples-repeated-key": (
        "s.jsonl", '{"audited": ["A"]}\n{"audited": ["A"], "audited": ["B"]}\n', "line 2: repeated key 'audited'"
    ),
    # Guards: a UTF-8 BOM is refused as json.loads refuses it, at the line it starts, in each JSON input.
    "native-bom": ("e.json", '\ufeff{"candidates": [], "ballots": []}', f"line 1: invalid JSON: {_BOM}"),
    "set-bom": ("set.json", '\ufeff{"method": "x", "winner": "A", "assertions": []}', f"line 1: invalid JSON: {_BOM}"),
    "samples-bom": ("s.jsonl", '{"audited": ["A"]}\n\ufeff{"audited": ["A"]}\n', f"line 2: invalid JSON: {_BOM}"),
}


@pytest.mark.parametrize("name, text, message", INPUT_FAULTS.values(), ids=INPUT_FAULTS)
def test_input_faults_exit_2(capsys, tmp_path, e1_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    good_set = str(tmp_path / "good.json")
    assert run_cli(capsys, "assertions", e1_path, "--method", "condorcet", "-o", good_set)[0] == 0
    good_samples = tmp_path / "good.jsonl"
    good_samples.write_text('{"audited": ["A"]}\n')
    # An election file is read first by every subcommand.
    election = [
        ["parse", str(path)],
        ["estimate", str(path), "--method", "condorcet", "--trials", "3"],
        ["audit", str(path), "--assertions-file", good_set, "--samples-file", str(good_samples)],
    ]
    commands = {
        "e.json": election,
        "e.soi": election,
        "set.json": [["estimate", e1_path, "--assertions-file", str(path), "--trials", "3"]],
        "s.jsonl": [["audit", e1_path, "--assertions-file", good_set, "--samples-file", str(path)]],
    }[name]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["estimate", "audit"])
def test_empty_set_certifies_nothing(capsys, tmp_path, e1_path, command):
    # IRV elects A in election1; a set with no claim for B shows nothing and is a full count, and says so.
    set_path, samples = tmp_path / "set.json", tmp_path / "s.jsonl"
    set_path.write_text('{"method": "irv", "winner": "B", "assertions": []}')
    samples.write_text('{"audited": ["A"]}\n')
    options = {"estimate": ["--trials", "5"], "audit": ["--samples-file", str(samples)]}[command]
    code, out, err = run_cli(capsys, command, e1_path, "--assertions-file", str(set_path), *options)
    assert (code, err) == (1, "")
    assert out == {
        "estimate": "Method: irv   winner: B\n"
                    "Population: 8300 ballots   style: polling   trials: 5   risk limit: 0.05   error rate: 0.002   "
                    "seed: 0\nAssertion                           ASN       (%)\n"
                    "full hand count: no assertion         ∞         ∞\n"
                    "Overall                               ∞         ∞\n",
        "audit": "Outcome: escalate-full-count\nBallots examined: 0\nAssertion                         p-value  certified\n"
                 "full hand count: no assertion           1  no\n",
    }[command]


def test_one_member_smith_set_takes_an_inner_set_without_claims(capsys, tmp_path, e1_path):
    # Guard: election1's Smith set is {A}, so the inner set names A and claims nothing; stage one certifies A.
    inner = tmp_path / "inner.json"
    inner.write_text('{"method": "irv", "winner": "A", "assertions": []}')
    code, out, _ = run_cli(capsys, "estimate", e1_path, "--method", "smith-irv", "--assertions-file", str(inner),
                           "--trials", "5")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[3:]] == ["s(A,B)", "s(A,C)", "Overall"]


_PREFLIB_HEADER = (
    "# NUMBER ALTERNATIVES: 3\n# ALTERNATIVE NAME 1: A\n# ALTERNATIVE NAME 2: B\n# ALTERNATIVE NAME 3: C\n"
)


@pytest.mark.parametrize("command", ["tabulate", "assertions", "estimate", "audit"])
def test_ingest_warnings_reach_stderr(capsys, tmp_path, command):
    repeated = tmp_path / "repeated.soi"
    repeated.write_text(_PREFLIB_HEADER + "5: 1,2,3\n3: 2,3,1\n2: 1,2,3\n")
    merged = tmp_path / "merged.soi"  # the same election, without the repeated line
    merged.write_text(_PREFLIB_HEADER + "7: 1,2,3\n3: 2,3,1\n")
    aset, samples = str(tmp_path / "set.json"), tmp_path / "s.jsonl"
    assert run_cli(capsys, "assertions", str(merged), "--method", "ranked-pairs", "-o", aset)[0] == 0
    samples.write_text('{"audited": ["A", "B", "C"], "reported": ["A", "B", "C"]}\n' * 5)
    options = {
        "tabulate": ["--method", "ranked-pairs"],
        "assertions": ["--method", "ranked-pairs"],
        "estimate": ["--method", "ranked-pairs", "--trials", "3"],
        "audit": ["--assertions-file", aset, "--samples-file", str(samples)],
    }[command]
    code, out, err = run_cli(capsys, command, str(repeated), *options)
    assert err == "warning: line 7: duplicate signature (first seen on line 5); counts merged\n"
    assert (code, out, "") == run_cli(capsys, command, str(merged), *options)


@pytest.mark.parametrize("flag", ["--error-rate", "--trials", "--seed"])
def test_simulation_options_are_estimate_only(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "e.json", "--assertions-file", "set.json", "--samples-file", "s.jsonl", flag, "1"])
    assert exc.value.code == 64


def test_audit_ignores_seed_variable(capsys, monkeypatch):
    golden = Path(__file__).parent / "golden"
    case = "election3.ranked-pairs.audit.polling.text"
    monkeypatch.setenv("CONDAUDIT_SEED", "x")
    code, out, _ = run_cli(
        capsys, "audit", str(golden / "election3.json"),
        "--assertions-file", str(golden / "election3.ranked-pairs.assertions.out"),
        "--samples-file", str(golden / "election3-samples.jsonl"),
    )
    assert code == json.loads((golden / "exit_codes.json").read_text())[case]
    assert out == (golden / f"{case}.out").read_text()


@pytest.mark.parametrize("factor", ["1500000000000000", "10000000000000000000"])
@pytest.mark.parametrize("command", [["tabulate"], ["estimate", "--trials", "1"]])
def test_tallies_past_int64_are_a_capacity_limit(capsys, e1_path, command, factor):
    # 8,300 ballots scaled to 2**63 or more: no wrapped tally and no traceback.
    code, out, err = run_cli(capsys, *command, e1_path, "--method", "ranked-pairs", "--scale", factor)
    n = 8300 * int(factor)
    assert (code, out, err) == (1, "", f"error: tallies count fewer than 2**63 ballots; the election has {n:,}\n")


@pytest.mark.parametrize("flag", ["--scale", "--workers"])
@pytest.mark.parametrize("value", ["0", "-5", "two"])
def test_scale_and_workers_must_be_positive(capsys, e3_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", e3_path, "--method", "condorcet", "--trials", "1", flag, value])
    assert exc.value.code == 64
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "+7", "\u0663"], ids=["underscore", "plus", "arabic-indic"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--scale", "argument --scale: must be a positive integer, got {!r}"),
        ("--workers", "argument --workers: must be a positive integer, got {!r}"),
        ("--trials", "argument --trials: invalid int value: {!r}"),
        ("--seed", "argument --seed: invalid int value: {!r}"),
    ],
    ids=["scale", "workers", "trials", "seed"],
)
def test_integer_options_are_ascii_digits(capsys, e3_path, flag, message, value):
    # int() reads each of these values; every integer option spells one in ASCII digits only.
    with pytest.raises(SystemExit) as exc:
        main(["estimate", e3_path, "--method", "condorcet", "--trials", "1", flag, value])
    assert exc.value.code == 64
    assert capsys.readouterr().err.endswith(f"condaudit estimate: error: {message.format(value)}\n")


_DECIMAL_FLAGS = ["--risk-limit", "--error-rate"]


@pytest.mark.parametrize(
    "value", ["0.0_5", "\u0660.\u0660\u0665", "+0.05", " 0.05", "nan", "inf"],
    ids=["underscore", "arabic-indic", "plus", "space", "nan", "inf"],
)
@pytest.mark.parametrize("flag", _DECIMAL_FLAGS)
def test_decimal_options_are_ascii_digits(capsys, e3_path, flag, value):
    # float() reads each of these values; a decimal option is ASCII digits, one '.' and an exponent at most.
    with pytest.raises(SystemExit) as exc:
        main(["estimate", e3_path, "--method", "condorcet", "--trials", "1", flag, value])
    assert exc.value.code == 64
    message = f"condaudit estimate: error: argument {flag}: invalid float value: {value!r}\n"
    assert capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize("value, read", [("0.05", 0.05), (".05", 0.05), ("5e-2", 0.05), ("1e-05", 1e-05)])
@pytest.mark.parametrize("flag", _DECIMAL_FLAGS)
def test_decimal_options_keep_their_spellings(capsys, e1_path, flag, value, read):
    # Guard: spellings that float() and parse_decimal both read keep their values.
    code, out, _ = run_cli(capsys, "estimate", e1_path, "--method", "condorcet", "--trials", "1", "--format", "json",
                           flag, value)
    assert code == 0
    assert json.loads(out)[flag[2:].replace("-", "_")] == read


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--risk-limit", "1", "risk_limit must be in (0, 1)"),
        ("--risk-limit", "1.5", "risk_limit must be in (0, 1)"),
        ("--trials", "0", "trials must be positive"),
        ("--seed", "-1", "seed must be nonnegative"),
        ("--error-rate", "1", "error_rate must be in [0, 1)"),
    ],
)
def test_out_of_range_audit_setting_is_usage_error(capsys, e3_path, flag, value, message):
    code, out, err = run_cli(capsys, "estimate", e3_path, "--method", "condorcet", flag, value)
    assert (code, out) == (64, "")
    assert err == f"usage error: {message}\n"


def test_infeasible_comparison_audit_exits_1(capsys, tmp_path, e3_path):
    # s(C,A) > 0 is false on election3, so no comparison audit of it can certify.
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"method": "custom", "winner": "C",
                                    "assertions": [{"type": "pairwise_positive", "winner": "C", "loser": "A"}]}))
    samples = tmp_path / "s.jsonl"
    samples.write_text(json.dumps({"reported": ["A", "B"], "audited": ["A", "B"]}) + "\n")
    code, out, err = run_cli(
        capsys, "audit", e3_path, "--style", "comparison",
        "--assertions-file", str(set_path), "--samples-file", str(samples),
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: comparison audit is impossible: reported tallies do not support the assertion (mean <= 1/2)\n"
    )


def _child_env():
    """Environment for a child process that imports the same condaudit as this process."""
    src = str(Path(condaudit.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _run_child(*argv, **env):
    """The exit code, stdout and stderr (bytes) of ``condaudit argv`` in a child process, ``env`` added to its own."""
    proc = subprocess.run([sys.executable, "-m", "condaudit", *argv], capture_output=True,
                          env={**_child_env(), **env}, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_output_reads_no_environment_variable():
    # --seed is the seed's one channel: setting $CONDAUDIT_SEED changes nothing.
    estimate = ["estimate", str(GOLDEN / "election1.json"), "--method", "condorcet", "--trials", "5"]
    assert _run_child(*estimate, CONDAUDIT_SEED="5") == _run_child(*estimate, "--seed", "0")
    # Nor does the hash seed change a golden output.
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    cases = {
        "election2.kemeny.tabulate.text": ["tabulate", str(GOLDEN / "election2.json"), "--method", "kemeny"],
        "election3.ranked-pairs.audit.polling.text": [
            "audit", str(GOLDEN / "election3.json"),
            "--assertions-file", str(GOLDEN / "election3.ranked-pairs.assertions.out"),
            "--samples-file", str(GOLDEN / "election3-samples.jsonl"),
        ],
    }
    for case, argv in cases.items():
        expected = (exit_codes[case], (GOLDEN / f"{case}.out").read_bytes(), b"")
        assert _run_child(*argv, PYTHONHASHSEED="0") == _run_child(*argv, PYTHONHASHSEED="1") == expected


@pytest.mark.parametrize("command", ["estimate", "parse", "tabulate"])
def test_text_that_stdout_cannot_encode_is_an_environment_error(capsys, tmp_path, command):
    # Each text holds a character ASCII lacks: the estimate's '∞' and the name 'Zoë', which tabulate
    # writes only after two ASCII lines. Unbuffered, any line written before the fault would show.
    names = tmp_path / "names.json"
    names.write_text(json.dumps({"candidates": ["A", "Zoë"], "ballots": [{"ranking": ["A", "Zoë"], "count": 3}]}))
    argv = {
        "estimate": ["estimate", str(GOLDEN / "smith_tie.json"), "--method", "smith-minimax", "--trials", "3"],
        "parse": ["parse", str(names)],
        "tabulate": ["tabulate", str(names), "--method", "ranked-pairs"],
    }[command]
    assert _run_child(*argv, PYTHONIOENCODING="ascii", PYTHONUNBUFFERED="1") == (
        64, b"", b"error: standard output cannot encode the text output (ascii); use --format json\n"
    )
    # JSON output is ASCII: the same run in JSON reaches stdout whole.
    code, out, _ = _run_child(*argv, "--format", "json", PYTHONIOENCODING="ascii")
    assert (code, out.decode("ascii")) == run_cli(capsys, *argv, "--format", "json")[:2]


def test_estimate_below_the_population_limit_needs_memory_for_the_sample_only(capsys, e3_path):
    # N = 34,000 x 29,000 = 986,000,000 ballots, in a process whose address space is capped at 1 GiB.
    args = ["estimate", e3_path, "--method", "ranked-pairs", "--style", "comparison", "--trials", "5", "--seed", "7",
            "--format", "json"]
    gib = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "condaudit", *args, "--scale", "34000"],
        capture_output=True,
        text=True,
        env={**_child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    unscaled = json.loads(run_cli(capsys, *args)[1])
    assert doc["population"] == 986_000_000
    assert doc["winner"] == unscaled["winner"] == "A"
    assert [r["assertion"] for r in doc["per_assertion"]] == [r["assertion"] for r in unscaled["per_assertion"]]
    assert doc["overall_asn"] <= 1000


def test_estimate_at_the_population_limit_exits_1(capsys, e3_path):
    # 34,483 x 29,000 = 1,000,007,000 ballots: the first scale of election3 at or past 10**9.
    code, out, err = run_cli(capsys, "estimate", e3_path, "--method", "ranked-pairs", "--scale", "34483")
    assert (code, out) == (1, "")
    assert err == "error: simulation takes fewer than 1,000,000,000 ballots; the election has 1,000,007,000\n"


@pytest.mark.parametrize("command", ["tabulate", "estimate"])
def test_kemeny_above_its_limit_exits_1(capsys, tmp_path, command):
    path = tmp_path / "nine.json"
    path.write_text(serialize_election(condaudit.Election(tuple("ABCDEFGHI"), {tuple(range(9)): 3})))
    code, out, err = run_cli(capsys, command, str(path), "--method", "kemeny")
    assert (code, out) == (1, "")
    assert err == "error: kemeny enumeration over 9 candidates needs 9! rankings; limit is 8\n"


def test_minimax_winner_without_a_strict_loss_escalates(capsys, tmp_path):
    # 3xACB, 2xBAC, 1xCBA: A's worst loss is its tie with B, so A wins Minimax
    # with no strongest defeat that the assertions could compare.
    path = tmp_path / "minimax_tie.json"
    path.write_text(serialize_election(condaudit.Election(tuple("ABC"), {(0, 2, 1): 3, (1, 0, 2): 2, (2, 1, 0): 1})))
    code, out, _ = run_cli(capsys, "tabulate", str(path), "--method", "minimax")
    assert code == 0 and out.startswith("Method: minimax\nWinner: A\n  worst loss A: 0\n")
    code, out, _ = run_cli(capsys, "assertions", str(path), "--method", "minimax")
    doc = json.loads(out)
    assert (code, doc["winner"]) == (0, None)
    assert doc["assertions"] == [
        {"type": "full_hand_count", "reason": "a candidate has no strict pairwise loss to compare"}
    ]
    code, out, _ = run_cli(capsys, "estimate", str(path), "--method", "minimax", "--trials", "3")
    assert code == 1
    assert out.splitlines()[-1].split() == ["Overall", "∞", "∞"]


def test_escalation_row_names_its_reason():
    two, one = condaudit.Election(tuple("AB"), {(0, 1): 1}), condaudit.Election(("A",), {(0,): 1})
    rows = cli._escalation_rows
    assert rows(AssertionSet("x", None, escalation="tie"), two) == [{"assertion": "full hand count: tie"}]
    assert rows(AssertionSet("x", None, escalation=""), two) == [{"assertion": "full hand count"}]
    assert rows(AssertionSet("x", 0), two) == [{"assertion": "full hand count: no assertion"}]
    assert rows(AssertionSet("x", 0), one) == []


def test_audit_config_fields_are_the_cli_options():
    # Every setting of an audit is a command-line option; the risk function's are constants.
    args = argparse.Namespace(risk_limit=0.1, error_rate=0.01, trials=3, seed=9, style="comparison")
    assert dataclasses.asdict(cli._cfg_from_args(args)) == vars(args)
    # audit takes no simulation options: those fields keep their defaults.
    audit_args = argparse.Namespace(risk_limit=0.1, style="comparison")
    assert cli._cfg_from_args(audit_args) == cli.AuditConfig(risk_limit=0.1, style="comparison")


def test_module_entry_point(e3_path):
    # The child imports the same condaudit as this process, even when pytest
    # alone put its source directory on sys.path.
    code, out, _ = _run_child("tabulate", "--method", "condorcet", e3_path)
    assert code == 0
    assert b"none" in out


def test_election_without_candidates_is_parse_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"candidates": [], "ballots": []}))
    assert run_cli(capsys, "parse", str(path))[0] == 0
    for command in ("tabulate", "estimate"):
        assert run_cli(capsys, command, str(path), "--method", "minimax") == (
            2, "", "error: the election names no candidates\n"
        )


def _raiser(exc: BaseException):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("code", [0, 1, 2, 64, 70])
def test_each_kind_of_outcome_has_its_exit_code(capsys, monkeypatch, tmp_path, e1_path, tie_path, code):
    bad = tmp_path / "bad.soi"
    bad.write_text("# NUMBER ALTERNATIVES: 2\n2: 1,1,2\n")
    election, method = {0: (e1_path, "condorcet"), 1: (tie_path, "smith-minimax"), 2: (str(bad), "condorcet"),
                        64: (e1_path, None), 70: (e1_path, "condorcet")}[code]
    if code == 70:  # a ValueError from a fault in the program is not an infeasible audit
        monkeypatch.setattr(cli, "estimate_audit", _raiser(ValueError("internal fault")))
    method_args = ["--method", method] if method else []
    got, out, err = run_cli(capsys, "estimate", election, *method_args, "--trials", "3")
    assert got == code
    if code in (0, 1):
        assert out.startswith("Method: ") and err == ""
    elif code == 70:
        assert out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("\nValueError: internal fault\n")
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith({2: "error: line 2: ", 64: "usage error: "}[code])


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 3.67 GiB for an array with shape (493000000,) and data type int64"),
         "error: Unable to allocate 3.67 GiB for an array with shape (493000000,) and data type int64\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy-message", "bare"],
)
def test_out_of_memory_exits_1_with_one_error_line(capsys, monkeypatch, e3_path, exc, line):
    monkeypatch.setattr(cli, "estimate_audit", _raiser(exc))
    assert run_cli(capsys, "estimate", e3_path, "--method", "ranked-pairs", "--trials", "3") == (1, "", line)


def test_json_output_never_reaches_the_pure_python_encoder(capsys, monkeypatch, tmp_path):
    # json.dumps(..., indent=2) builds its encoder with json.encoder._make_iterencode; the C path does not.
    golden = Path(__file__).parent / "golden"
    exit_codes = json.loads((golden / "exit_codes.json").read_text())
    election = str(golden / "election3.json")
    set_path = str(golden / "election3.kemeny.assertions.out")
    written = tmp_path / "set.json"
    cases = {
        "election3.ranked-pairs.tabulate.json": ["tabulate", election, "--method", "ranked-pairs", "--format", "json"],
        "election3.kemeny.assertions": ["assertions", election, "--method", "kemeny"],
        "election3.ranked-pairs.estimate.comparison.json": [
            "estimate", election, "--method", "ranked-pairs", "--style", "comparison", "--format", "json",
            "--trials", "20", "--seed", "7", "--workers", "2",
        ],
        "election3.kemeny.audit.polling.json": [
            "audit", election, "--format", "json", "--assertions-file", set_path,
            "--samples-file", str(golden / "election3-samples.jsonl"),
        ],
    }
    monkeypatch.setattr(json.encoder, "_make_iterencode", _raiser(AssertionError("pure-Python JSON encoder")))
    code, out, err = run_cli(capsys, "parse", election, "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["total_ballots"] == 29000
    for case, argv in cases.items():
        assert run_cli(capsys, *argv) == (exit_codes[case], (golden / f"{case}.out").read_text(), ""), case
    code, out, err = run_cli(capsys, "assertions", election, "--method", "kemeny", "-o", str(written))
    assert (code, err) == (0, "")
    assert written.read_text() == (golden / "election3.kemeny.assertions.out").read_text()


def test_audit_payload_writes_the_trace_without_a_copy():
    golden = Path(__file__).parent / "golden"
    election = condaudit.parse_path(str(golden / "election3.json")).election
    aset = import_assertions((golden / "election3.ranked-pairs.assertions.out").read_text(), election)
    stream = condaudit.load_samples(str(golden / "election3-samples.jsonl"), election)
    report = condaudit.run_audit(aset, stream, election, condaudit.AuditConfig())
    payload, _ = cli._audit_payload(aset, report, election)
    examined, records = report.ballots_examined, report.records
    assert examined > 0 and len(records) > 1 and len(payload["assertions"]) == len(records)
    # Every trace is a read-only float64 row of one (assertions x examined) matrix, written as it is.
    matrix = records[0].p_trace.base
    assert matrix.dtype == np.float64 and matrix.shape[0] == len(records)
    for i, (row, rec) in enumerate(zip(payload["assertions"], records)):
        assert row["p_trace"] is rec.p_trace
        trace = rec.p_trace
        assert trace.dtype == np.float64 and trace.shape == (examined,) and not trace.flags.writeable
        assert trace.base is matrix and np.shares_memory(trace, matrix[i, :examined])
        assert type(rec.p_value) is float and rec.p_value == trace[-1]


_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308]
)
_STRINGS = st.text() | st.text(st.characters(min_codepoint=0x80), min_size=1)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**200).map(lambda n: -n if n % 2 else n)
            | _FLOATS | _STRINGS)
# Long lists drawn from a few values, so that they repeat as a p-value trace does.
_LONG_RUNS = st.lists(_FLOATS, min_size=1, max_size=6) | st.lists(_FLOATS | _SCALARS, min_size=1, max_size=6)
_LONG_LISTS = st.builds(
    lambda pool, size, rng: [rng.choice(pool) for _ in range(size)],
    _LONG_RUNS, st.integers(64, 192), st.randoms(use_true_random=False),
)
# 1-D float64 arrays, as an audit's p-value traces are: short ones, and long ones drawn from a few values.
_ARRAYS = st.lists(_FLOATS, max_size=4).map(lambda xs: np.array(xs, dtype=np.float64)) | st.builds(
    lambda pool, size, rng: np.array([rng.choice(pool) for _ in range(size)], dtype=np.float64),
    st.lists(_FLOATS, min_size=1, max_size=6), st.integers(64, 192), st.randoms(use_true_random=False),
)
_DOCUMENTS = st.recursive(
    _SCALARS | _LONG_LISTS | _ARRAYS,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=12,
)


def as_lists(doc):
    """``doc`` with each array replaced by its ``tolist()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: as_lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(as_lists, doc))
    return doc


@given(_DOCUMENTS)
@example([0.0, -0.0] * 40)
@example([-0.0, 0.0, math.nan])
@example({"p_trace": (math.nan,) * 70, "e": [[], {}, ()], "": {"é": [[{}]]}})
@example({7: [1.5], 2.5: {}, None: [[]], False: "x", True: {}})
@example({"a": 1, "b": [1, 2.5], "c": "x", "d": {"e": None}, "f": 2.5})
@example([1, [2.0, -0.0], "s", {"k": (0.5, 0.5)}, None])
@example([[[[0.1, 0.1, math.nan]]]])
@example({"p_trace": np.array([1.0] * 70 + [0.5, -0.0, 0.0, math.nan, -math.nan, 5e-324, 5e-324]), "e": np.empty(0)})
@example([np.linspace(0, 1, 10)[::3], np.arange(12.0).reshape(3, 4)[1], (np.array([math.inf, -math.inf]),)])
@settings(max_examples=200, deadline=None)
def test_dumps_is_json_dumps_indent_2(doc):
    assert cli._dumps(doc) == json.dumps(as_lists(doc), indent=2)


@pytest.mark.parametrize("array", [np.arange(3, dtype=np.int64), np.zeros((2, 2))], ids=["int64", "2-d-float64"])
def test_dumps_rejects_any_other_array(array):
    for doc in (array, [1.5, array], {"p_trace": array}):
        with pytest.raises(TypeError, match="^Object of type ndarray is not JSON serializable$"):
            cli._dumps(doc)
