import json

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
