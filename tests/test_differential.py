import json
from pathlib import Path

import differential


def test_differential_smoke_run(capsys, tmp_path):
    # Guard: the differential check runs every family; a library change that breaks its use of the API fails here.
    dump = tmp_path / "cases.jsonl"
    assert differential.main(["--cases", "3", "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(differential.FAMILIES)
    assert all(len(line.split()[1]) == 64 and sum(int(c.split("=")[1]) for c in line.split()[2:]) == 3
               for line in lines)
    cases = [json.loads(line) for line in dump.read_text().splitlines()]
    assert [(c["family"], c["case"]) for c in cases] == [(f, i) for f in differential.FAMILIES for i in range(3)]
    assert not any(c["outcome"] == "oracle-mismatch" for c in cases)


COMMITTED = Path(__file__).parent / "data" / "differential.txt"


def test_differential_lines_match_the_committed_ones(capsys):
    # Nothing moved: at 100 cases every family prints its committed line.  A deliberate behaviour change
    # re-captures the file, in its own commit, with
    #     PYTHONPATH=src python tests/differential.py --cases 100 > tests/data/differential.txt
    assert differential.main(["--cases", "100"]) == 0
    assert capsys.readouterr().out.splitlines() == COMMITTED.read_text(encoding="utf-8").splitlines()
