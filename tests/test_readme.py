"""The library example in README.md runs as written and prints the closed-form QCRB, every command
of its CLI block exits 0, and the documented exit codes are the ones the CLI returns."""

import contextlib
import inspect
import io
import re
import shlex
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


def readme_commands() -> list[list[str]]:
    """The `wignersim` commands of README's CLI block, continuation lines joined, as argument lists."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.S).group(1)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def test_cli_block_commands_run(tmp_path, monkeypatch):
    # each documented command runs as written (from the repository root), its outputs under tmp_path
    monkeypatch.chdir(README.parent)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["run", "sweep", "drift", "counts", "validate"]
    for i, argv in enumerate(commands):
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / str(i))
        elif argv[0] != "validate":
            argv += ["--out", str(tmp_path / str(i))]
        assert cli.main(argv) == 0, argv
