"""README's "Library quickstart" block runs and prints what it promises."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The source of the first Python block under "## Library quickstart"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quickstart_prints_its_documented_values():
    source = quickstart()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    # the first two lines are the values the block's comments give
    assert "# (23.0, 2.0)" in source and "# (0.6, 0.2, 0.2)" in source
    assert out.getvalue().splitlines() == [
        "(23.0, 2.0)", "(0.6, 0.2, 0.2)", "-25.2", "[0, 1]", "[0, 1]"]
