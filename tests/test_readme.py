"""README examples: the Python quick start runs as documented."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs():
    """The first ``python`` block of the README runs in a fresh interpreter."""
    code = re.search(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                     re.M | re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
