"""The README's library quick start runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["(True, None)", "200 None"]
