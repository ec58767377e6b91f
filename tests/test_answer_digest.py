"""Every answer of the fixed corpus in answer_digest.py, pinned: the output
counts and the SHA-256 over all answers. A change that moves answers on
purpose updates these two lines and says why in CHANGES.md."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

COUNTS = "outputs 6520: exact 3356, inexact 2164, infeasible 1000"
SHA256 = "sha256 d5bf2d92052685401f8a2eeb8a71e2f7003bb0bb323f77633baf737d8b4a6fd2"


def test_answers_equal_the_pinned_digest():
    script = Path(__file__).with_name("answer_digest.py")
    run = subprocess.run([sys.executable, "-W", "error", str(script)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [COUNTS, SHA256]
