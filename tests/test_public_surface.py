"""The public surface: the package exports and the README's library example."""

from __future__ import annotations

import contextlib
import io
import re

from conftest import REPO

import orbidisk


def test_every_export_resolves():
    missing = [name for name in orbidisk.__all__ if not hasattr(orbidisk, name)]
    assert missing == []
    assert len(set(orbidisk.__all__)) == len(orbidisk.__all__)


def test_readme_library_example_prints_its_comments():
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print line states its output in a trailing comment
    expected = re.findall(r"^print\(.*\)\s*#\s*(\S+)$", code, re.M)
    assert expected == ["1/6", "-1/18"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
