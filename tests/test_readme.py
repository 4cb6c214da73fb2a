"""The library example in README.md runs as written and prints the closed-form QCRB, and the
documented exit codes are the ones the CLI returns."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import pytest

from wignersim import cli
from wignersim import estimation as est

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_lossless_qcrb():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert float(printed[-1]) == pytest.approx(est.lossless_qcrb(100.0, 1.0), rel=1e-13, abs=0.0)


def test_readme_documents_only_exit_codes_the_cli_returns():
    para = " ".join(re.search(r"Exit codes: (.*?)\n\n", README.read_text(), flags=re.S).group(1).split())
    listed = re.sub(r"\([^)]*\)", "", para).split(".")[0]  # the list sentence, without its parentheses
    documented = {int(code) for code in re.findall(r"\b(\d+) [a-z]", listed)}
    returned = {int(code) for code in re.findall(r"\breturn (\d+)\b", inspect.getsource(cli.main))}
    assert documented == returned == {0, 2}
