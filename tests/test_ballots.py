import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condaudit import (
    Election,
    ParseError,
    pairwise_tallies,
    parse_native,
    parse_path,
    parse_preflib,
    scale,
    serialize_election,
)
from condaudit.ballots import parse_decimal

from oracles import json_values, random_election

ELECTION1_SOI = """\
# FILE NAME: election1.soi
# TITLE: worked example
# DATA TYPE: soi
# NUMBER ALTERNATIVES: 3
# NUMBER VOTERS: 8300
# NUMBER UNIQUE ORDERS: 4
# ALTERNATIVE NAME 1: A
# ALTERNATIVE NAME 2: B
# ALTERNATIVE NAME 3: C
5000: 1,2
2500: 2,3
500: 3,1,2
300: 2,1
"""


class TestParsePreflib:
    def test_worked_example(self, election1):
        report = parse_preflib(ELECTION1_SOI)
        assert report.election == election1
        assert report.warnings == []

    def test_minimal_header_synthesizes_names(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 3\n5000: 1,2\n2500: 2,3\n500: 3,1,2\n300: 2,1\n")
        e = report.election
        assert e.candidates == ("C1", "C2", "C3")
        assert e.profile == {(0, 1): 5000, (1, 2): 2500, (2, 0, 1): 500, (1, 0): 300}

    def test_empty_vote_section(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 2\n")
        assert report.election.total_ballots == 0
        assert report.election.num_candidates == 2

    def test_duplicate_candidate_in_ranking(self):
        with pytest.raises(ParseError) as err:
            parse_preflib("# NUMBER ALTERNATIVES: 2\n2: 1,1,2\n")
        assert err.value.line == 2

    def test_malformed_count(self):
        with pytest.raises(ParseError) as err:
            parse_preflib("# NUMBER ALTERNATIVES: 2\nfive: 1\n")
        assert err.value.line == 2

    def test_negative_count(self):
        with pytest.raises(ParseError):
            parse_preflib("# NUMBER ALTERNATIVES: 2\n-3: 1\n")

    def test_unknown_candidate_number(self):
        with pytest.raises(ParseError) as err:
            parse_preflib("# NUMBER ALTERNATIVES: 2\n4: 3\n")
        assert err.value.line == 2

    def test_ties_dialect_rejected_by_header(self):
        with pytest.raises(ParseError, match="ties"):
            parse_preflib("# DATA TYPE: toc\n# NUMBER ALTERNATIVES: 2\n1: 1,2\n")

    def test_tied_ranks_rejected_in_votes(self):
        with pytest.raises(ParseError, match="strict orders"):
            parse_preflib("# NUMBER ALTERNATIVES: 3\n4: {1,2},3\n")

    def test_duplicate_signatures_merged_with_warning(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 2\n3: 1,2\n4: 1,2\n")
        assert report.election.profile == {(0, 1): 7}
        assert any("merged" in msg for _, msg in report.warnings)

    def test_voter_count_mismatch_warns(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 10\n3: 1,2\n")
        assert any("NUMBER VOTERS" in msg for _, msg in report.warnings)
        assert report.election.total_ballots == 3

    def test_missing_alternatives_inferred_with_warning(self):
        report = parse_preflib("2: 1,3\n")
        assert report.election.num_candidates == 3
        assert any("inferred" in msg for _, msg in report.warnings)

    def test_crlf_line_endings(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 2\r\n3: 1,2\r\n")
        assert report.election.profile == {(0, 1): 3}

    def test_free_form_comment_skipped(self):
        report = parse_preflib("# collected by hand\n# NUMBER ALTERNATIVES: 2\n3: 1,2\n")
        assert report.election.profile == {(0, 1): 3}
        assert report.warnings == []

    @pytest.mark.parametrize(
        "vote, message",
        [("3 1,2", "line 2: expected 'count: c1,c2,...'"), ("3: 1,,2", "line 2: empty candidate field in ranking")],
        ids=["no-colon", "empty-field"],
    )
    def test_malformed_vote_line(self, vote, message):
        with pytest.raises(ParseError) as err:
            parse_preflib(f"# NUMBER ALTERNATIVES: 2\n{vote}\n")
        assert str(err.value) == message

    def test_unique_order_count_mismatch_warns(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 2\n# NUMBER UNIQUE ORDERS: 2\n3: 1,2\n")
        assert report.warnings == [(None, "NUMBER UNIQUE ORDERS declares 2 but found 1")]

    def test_empty_ranking_allowed(self):
        report = parse_preflib("# NUMBER ALTERNATIVES: 2\n5:\n")
        assert report.election.profile == {(): 5}

    @pytest.mark.parametrize(
        "header, message",
        [
            ("# NUMBER ALTERNATIVES: 3\n# NUMBER ALTERNATIVES: 2\n", "line 2: NUMBER ALTERNATIVES repeats line 1"),
            ("# NUMBER VOTERS: 5\n# NUMBER VOTERS: 3\n", "line 2: NUMBER VOTERS repeats line 1"),
            ("# NUMBER VOTERS: 3\n# number voters: 3\n", "line 2: NUMBER VOTERS repeats line 1"),
            ("# NUMBER UNIQUE ORDERS: 1\n# NUMBER UNIQUE ORDERS: 1\n", "line 2: NUMBER UNIQUE ORDERS repeats line 1"),
            ("# DATA TYPE: soc\n# DATA TYPE: soi\n", "line 2: DATA TYPE repeats line 1"),
            ("# ALTERNATIVE NAME 1: A\n# ALTERNATIVE NAME 01: B\n", "line 2: ALTERNATIVE NAME 1 repeats line 1"),
            ("# NUMBER ALTERNATIVES: -1\n", "line 1: negative NUMBER ALTERNATIVES -1"),
            ("# NUMBER VOTERS: -3\n", "line 1: negative NUMBER VOTERS -3"),
        ],
        ids=["alternatives-twice", "voters-twice", "voters-twice-in-another-case", "orders-twice", "data-type-twice",
             "name-twice", "negative-alternatives", "negative-voters"],
    )
    def test_header_faults(self, header, message):
        # Each header key read is given once, and a count is a nonnegative integer.
        with pytest.raises(ParseError) as err:
            parse_preflib(header + "3: 1,2\n")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "key",
        ["ALTERNATIVE NAME1", "ALTERNATIVE NAME", "ALTERNATIVE NAMES", "alternative name1", "ALTERNATIVE NAME 1 2",
         "NUMBER ALTERNATIVES2", "NUMBER VOTERSX", "NUMBER UNIQUE ORDERS 1", "DATA TYPES",
         # Runs of whitespace, "_" and "-" read as one space: each would otherwise be a free-form comment.
         "ALTERNATIVE NAME-1", "ALTERNATIVE_NAME 1", "ALTERNATIVE  NAME 1", "ALTERNATIVE\tNAME 1",
         "alternative--name 1", "NUMBER_VOTERS", "_DATA TYPE", "NUMBER VOTERS (declared)", "DATA TYPE\u00e9"],
    )
    def test_near_miss_header_key_is_a_fault(self, key):
        # A key that starts like a read key but is not one would otherwise be skipped as unread.
        with pytest.raises(ParseError) as err:
            parse_preflib(f"# NUMBER ALTERNATIVES: 2\n# {key}: Alice\n3: 1,2\n")
        assert str(err.value) == f"line 2: malformed header key {key!r}"

    @pytest.mark.parametrize("key", ["FILE NAME", "NUMBER CATEGORIES", "NUMBER", "ALTERNATIVE", "DATA", "NUMBER-OF VOTERS",
                                     "ALTERNATIVES NAME 1", "A NUMBER VOTERS"])
    def test_unread_key_is_skipped(self, key):
        # Guard: a key that is no read key's prefix stays unread.
        report = parse_preflib(f"# NUMBER ALTERNATIVES: 2\n# {key}: x\n3: 1,2\n")
        assert (report.election.candidates, report.warnings) == (("C1", "C2"), [])

    @pytest.mark.parametrize("line", ["# ALTERNATIVE NAME-1 Alice", "# NUMBER_VOTERS 3", "#:ALTERNATIVE_NAME 1: x"])
    def test_comment_is_skipped(self, line):
        # Guard: a key is the text before the line's first ":", so a line without one, or with an empty key, is a comment.
        report = parse_preflib(f"# NUMBER ALTERNATIVES: 2\n{line}\n3: 1,2\n")
        assert (report.election.candidates, report.warnings) == (("C1", "C2"), [])

    def test_unread_key_may_repeat(self):
        report = parse_preflib("# TITLE: one\n# NUMBER ALTERNATIVES: 2\n# TITLE: two\n3: 1,2\n")
        assert report.election.profile == {(0, 1): 3}
        assert report.warnings == []

    @pytest.mark.parametrize(
        "token", ["1_0", "+3", "\u0663", "\uff13"], ids=["underscore", "plus", "arabic-indic", "fullwidth"]
    )
    @pytest.mark.parametrize(
        "template, at, what",
        [
            ("# NUMBER ALTERNATIVES: 2\n{}: 1,2\n", 2, "vote count"),
            ("# NUMBER ALTERNATIVES: 9\n3: 1,{}\n", 2, "candidate number"),
            ("# NUMBER ALTERNATIVES: {}\n3: 1,2\n", 1, "NUMBER ALTERNATIVES"),
            ("# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: {}\n3: 1,2\n", 2, "NUMBER VOTERS"),
        ],
        ids=["vote-count", "candidate-number", "alternatives", "voters"],
    )
    def test_integers_are_ascii_digits(self, template, at, what, token):
        # int() reads each of these tokens; a Preflib file spells an integer in ASCII digits only.
        with pytest.raises(ParseError) as err:
            parse_preflib(template.format(token))
        assert str(err.value) == f"line {at}: malformed {what}: {token!r}"

    @pytest.mark.parametrize(
        "text, candidates, warnings",
        [
            ("# number alternatives: 3\n1: 1,2\n", ("C1", "C2", "C3"), []),
            ("# NUMBER ALTERNATIVES: 2\n# Number Voters: 5\n1: 1,2\n1: 2\n1: 2,1\n", ("C1", "C2"),
             [(None, "NUMBER VOTERS declares 5 but votes sum to 3")]),
            ("# Alternative Name 2: B\n# NUMBER ALTERNATIVES: 2\n1: 1,2\n", ("C1", "B"), []),
        ],
        ids=["alternatives", "voters", "alternative-name"],
    )
    def test_header_keys_are_read_in_any_case(self, text, candidates, warnings):
        report = parse_preflib(text)
        assert report.election.candidates == candidates
        assert report.warnings == warnings


@pytest.mark.parametrize("token, value", [("0.05", 0.05), (".05", 0.05), ("5.", 5.0), ("5e-2", 0.05), ("1e-05", 1e-05),
                                          ("1", 1.0), ("-0.5", -0.5), ("2E+3", 2000.0)])
def test_decimal_spellings(token, value):
    assert parse_decimal(token) == value


@pytest.mark.parametrize("token", ["0.0_5", "\u0660.\u0660\u0665", "+0.05", " 0.05", "0.05\n", "nan", "inf", ".", "",
                                   "1.2.3", "1e", "e5", "--1", "0x1"])
def test_decimal_spellings_refused(token):
    # float() reads most of these; parse_decimal reads ASCII digits, one '.', an exponent and a leading '-' only.
    with pytest.raises(ValueError, match="^not a decimal: "):
        parse_decimal(token)


class TestParseNative:
    def test_worked_example(self, election2):
        text = (
            '{"candidates":["A","B","C"],"ballots":['
            '{"ranking":["A","C","B"],"count":20000},'
            '{"ranking":["B","C","A"],"count":19000},'
            '{"ranking":["C"],"count":5000}]}'
        )
        report = parse_native(text)
        assert report.election == election2

    def test_single_candidate_no_ballots(self):
        report = parse_native('{"candidates":["A"],"ballots":[]}')
        assert report.election.num_candidates == 1
        assert report.election.total_ballots == 0

    def test_negative_count(self):
        with pytest.raises(ParseError):
            parse_native('{"candidates":["A"],"ballots":[{"ranking":["A"],"count":-1}]}')

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown candidate"):
            parse_native('{"candidates":["A"],"ballots":[{"ranking":["Z"],"count":1}]}')

    def test_duplicate_within_ranking(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_native('{"candidates":["A","B"],"ballots":[{"ranking":["A","A"],"count":1}]}')

    def test_duplicate_candidate_name(self):
        with pytest.raises(ParseError):
            parse_native('{"candidates":["A","A"],"ballots":[]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('["A"]', "top-level value must be an object"),
            ('{"candidates": "AB", "ballots": []}', "'candidates' must be a list of names"),
            ('{"candidates": ["A"], "ballots": {}}', "'ballots' must be a list"),
            ('{"candidates": ["A"], "ballots": [["A"]]}', "ballots[0] must be an object"),
        ],
        ids=["top-level", "candidates", "ballots", "ballot-entry"],
    )
    def test_malformed_structure(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_native(text)
        assert str(err.value) == message

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_native('{"candidates": ["A"],\n "ballots": }')
        assert err.value.line == 2

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_loads_or_is_a_parse_error(self, data):
        # Guard: each field holds a valid value or any JSON value, and nothing but a ParseError escapes.
        names = st.sampled_from(["A", "B", "C"])

        def field(valid):  # one field in four holds any JSON value
            return data.draw(json_values if data.draw(st.integers(0, 3)) == 0 else valid)

        ballots = [
            {"ranking": field(st.lists(names, max_size=3, unique=True)), "count": field(st.integers(0, 5))}
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        doc = {"candidates": field(st.permutations(["A", "B", "C"])), "ballots": field(st.just(ballots))}
        try:
            parse_native(json.dumps(doc))
        except ParseError:
            pass

    def test_merged_duplicate_signatures_warn(self):
        report = parse_native(
            '{"candidates":["A"],"ballots":[{"ranking":["A"],"count":1},{"ranking":["A"],"count":2}]}'
        )
        assert report.election.profile == {(0,): 3}
        assert report.warnings


class TestScale:
    def test_identity(self, election1):
        assert scale(election1, 1) == election1

    def test_scaling_rule(self):
        e = Election(("A", "B"), {(0, 1): 3})
        assert scale(e, 1000).profile == {(0, 1): 3000}

    def test_election2_doubled(self, election2):
        assert scale(election2, 2).total_ballots == 88000

    def test_zero_factor_rejected(self, election1):
        with pytest.raises(ValueError):
            scale(election1, 0)

    def test_bool_factor_rejected(self, election1):
        # True once scaled by 1.
        with pytest.raises(ValueError, match="^scale factor must be a positive integer, got True$"):
            scale(election1, True)

    def test_numpy_integer_factor(self, election1):
        assert scale(election1, np.int64(2)) == scale(election1, 2)

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_scale_composes(self, seed, a, b):
        e = random_election(np.random.default_rng(seed))
        assert scale(e, a * b) == scale(scale(e, a), b)

    @given(st.integers(0, 10_000), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_tallies_scale_entrywise(self, seed, m):
        e = random_election(np.random.default_rng(seed))
        assert np.array_equal(pairwise_tallies(scale(e, m)), m * pairwise_tallies(e))


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_native_round_trip(seed):
    e = random_election(np.random.default_rng(seed))
    assert parse_native(serialize_election(e)).election == e


def test_parse_path_sniffs_formats(tmp_path, election1):
    soi = tmp_path / "e.soi"
    soi.write_text(ELECTION1_SOI)
    assert parse_path(soi).election == election1

    native = tmp_path / "e.json"
    native.write_text(serialize_election(election1))
    assert parse_path(native).election == election1

    sniffed = tmp_path / "e.dat"
    sniffed.write_text(serialize_election(election1))
    assert parse_path(sniffed).election == election1


def test_parse_path_reads_line_ends_as_they_are(tmp_path):
    # A lone "\r" ends no line: the file fails where its text does, at line 2.
    text = "# NUMBER ALTERNATIVES: 2\n3: 1,2\r1: 1,3\n"
    path = tmp_path / "e.soi"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as from_text:
        parse_preflib(text)
    with pytest.raises(ParseError) as from_file:
        parse_path(path)
    assert (str(from_file.value), from_file.value.line) == (str(from_text.value), from_text.value.line) == (
        "line 2: malformed candidate number: '2\\r1: 1'", 2)
