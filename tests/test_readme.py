import re
import shlex
from pathlib import Path

import pytest

from vropt.cli import make_parser
from vropt.problems import LossKind

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_verbatim(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2  # the two print lines


def test_cli_block_parses_and_every_subcommand_has_help(capsys):
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("vropt ")]
    for argv in commands:
        make_parser().parse_args(argv[1:])  # parsed, not run
    names = {argv[1] for argv in commands}
    assert names == {"run", "summarize", "alpha", "verify", "parse-check"}
    for name in names:
        with pytest.raises(SystemExit) as done:
            make_parser().parse_args([name, "-h"])
        assert done.value.code == 0, name
        out = capsys.readouterr().out
        if name == "run":
            assert all(kind.value in out for kind in LossKind)
