"""Smoke test of ``tools/output_hashes.py``, the listing that pins the
outputs of a fixed matrix of runs: it must run to the end, so that a name
it imports cannot go missing unseen."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"


def test_output_hashes_lists_unique_names_each_with_a_digest(tmp_path):
    out = tmp_path / "hashes.txt"
    proc = subprocess.run([sys.executable, str(TOOL), str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines
    assert all(re.fullmatch(r".+ [0-9a-f]{64}", line) for line in lines)
    names = [line.rsplit(" ", 1)[0] for line in lines]
    assert len(set(names)) == len(names)
