"""Every answer of the fixed corpus in answer_digest.py, pinned: the output
counts and the SHA-256 over all answers. A change that moves answers on
purpose updates these two lines and says why in CHANGES.md."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

COUNTS = "outputs 6320: exact 3272, inexact 2048, infeasible 1000"
SHA256 = "sha256 f8ac3c5b409074417f3a4e590dbabff5bfdc54d69ea8c4d6664b4d06f5280144"


def test_answers_equal_the_pinned_digest():
    script = Path(__file__).with_name("answer_digest.py")
    run = subprocess.run([sys.executable, "-W", "error", str(script)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [COUNTS, SHA256]
