import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condaudit
from condaudit import cli, import_assertions, parse_native, serialize_election
from condaudit.cli import main

from oracles import expand, random_election


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

    def test_needs_method_or_file(self, capsys, e1_path):
        code, _, err = run_cli(capsys, "estimate", e1_path)
        assert code == 64

    def test_env_var_seed_default(self, capsys, e1_path, monkeypatch):
        monkeypatch.setenv("CONDAUDIT_SEED", "99")
        _, out, _ = run_cli(
            capsys, "estimate", "--method", "condorcet", e1_path,
            "--trials", "5", "--style", "comparison", "--format", "json",
        )
        assert json.loads(out)["seed"] == 99

    def test_env_var_seed_is_read_at_each_call(self, capsys, e1_path, monkeypatch):
        seeds = []
        for value in ("5", "6"):
            monkeypatch.setenv("CONDAUDIT_SEED", value)
            _, out, _ = run_cli(
                capsys, "estimate", "--method", "condorcet", e1_path, "--trials", "2", "--format", "json",
            )
            seeds.append(json.loads(out)["seed"])
        monkeypatch.delenv("CONDAUDIT_SEED")
        _, out, _ = run_cli(
            capsys, "estimate", "--method", "condorcet", e1_path, "--trials", "2", "--format", "json",
        )
        assert seeds + [json.loads(out)["seed"]] == [5, 6, 0]

    def test_malformed_env_var_seed_is_usage_error(self, capsys, e1_path, monkeypatch):
        monkeypatch.setenv("CONDAUDIT_SEED", "12x")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--method", "condorcet", e1_path, "--trials", "5"])
        assert exc.value.code == 64
        assert "CONDAUDIT_SEED" in capsys.readouterr().err
        # An explicit --seed does not read the variable.
        code, out, _ = run_cli(
            capsys, "estimate", "--method", "condorcet", e1_path, "--trials", "5", "--seed", "3",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["seed"] == 3


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


@pytest.mark.parametrize("flag", ["--scale", "--workers"])
@pytest.mark.parametrize("value", ["0", "-5", "two"])
def test_scale_and_workers_must_be_positive(capsys, e3_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", e3_path, "--method", "condorcet", "--trials", "1", flag, value])
    assert exc.value.code == 64
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--risk-limit", "1.5", "risk_limit must be in (0, 1)"),
        ("--trials", "0", "trials must be positive"),
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


@pytest.mark.parametrize("command", ["tabulate", "estimate"])
def test_kemeny_above_its_limit_exits_1(capsys, tmp_path, command):
    path = tmp_path / "nine.json"
    path.write_text(serialize_election(condaudit.Election(tuple("ABCDEFGHI"), {tuple(range(9)): 3})))
    code, out, err = run_cli(capsys, command, str(path), "--method", "kemeny")
    assert (code, out) == (1, "")
    assert err == "error: kemeny enumeration over 9 candidates needs 9! rankings; limit is 8\n"


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
    src = str(Path(condaudit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "condaudit", "tabulate", "--method", "condorcet", e3_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "none" in proc.stdout
