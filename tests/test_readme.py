"""The Python examples in README.md print what their comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _matches(expected: str, printed: str) -> bool:
    # "..." stands for any text, so a trailing "..." is a prefix match.
    pattern = ".*".join(map(re.escape, expected.split("...")))
    return re.fullmatch(pattern, printed) is not None


def test_readme_examples_print_their_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        # Each "# value" comment is the line its statement prints, in order.
        expected = [line.split("# ", 1)[1] for line in block.splitlines() if "# " in line]
        result = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        printed = result.stdout.splitlines()
        assert len(printed) == len(expected), (expected, printed)
        for want, got in zip(expected, printed):
            assert _matches(want, got), (want, got)
