import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_benchmark_smoke_run_passes():
    # The benchmark drives the CLI with its own options; a CLI change that breaks it fails here.
    # It runs from the repository root and writes only the git-ignored .bench_work/ and .bench_out/.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == '{"correct": true}'
