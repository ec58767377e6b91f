"""Every answer of the fixed corpus in answer_digest.py, pinned: the output
counts and the SHA-256 over all answers. A change that moves answers on
purpose updates these two lines and says why in CHANGES.md."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

COUNTS = "outputs 6480: exact 3344, inexact 2136, infeasible 1000"
SHA256 = "sha256 933e11408b3c75d337fd01c9eb1962dfc52c184210c82b9fec5df0802a9002b9"


def test_answers_equal_the_pinned_digest():
    script = Path(__file__).with_name("answer_digest.py")
    run = subprocess.run([sys.executable, "-W", "error", str(script)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [COUNTS, SHA256]
