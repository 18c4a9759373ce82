import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_pass_is_correct():
    """One traced seed-0 pass of every benchmark workload: every output
    matches the pinned corpus digests and the tracer's self-test finds
    every span it expects reached."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
