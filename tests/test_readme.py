"""README's code examples run as written against the installed package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_session_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A minimal session:\s*```python\n(.*?)```", text,
                      re.DOTALL)
    assert block is not None, "README has no minimal-session python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    # A, P, r_in, R_circ, the deficit and whether every bound holds.
    fields = out.getvalue().split()
    assert len(fields) == 6 and fields[-1] == "True", fields
