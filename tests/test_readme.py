"""README's examples run as written, so the README cannot drift.

The two python blocks run in one namespace, their ``assert`` included, and
print the lines their ``# `` comments show: the comment of a ``print`` line
and every comment line.  A comment holding ``...`` gives the start of its
line, up to the ``...``.  Each ``spindual`` line of "Command line" runs
through ``cli.main`` in process, the ``echo ... |`` line with its document on
standard input, and must exit with its code below.
"""

import io
import json
import re
import shlex
from pathlib import Path

from spindual.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# classify D (4; 0), classify D (1; 3), table, enumerate, rewrite, orbit,
# verify-chain, classify B (2 2; 0 0) --trace, classify of a document
COMMAND_LINE_EXIT_CODES = [0, 3, 0, 0, 0, 0, 0, 3, 0]


def fenced(language: str, text: str = README) -> list:
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def printed_comments(block: str) -> list:
    """The comments that show output: those of print lines, and comment lines."""
    shown = []
    for line in block.splitlines():
        code, hash_, comment = line.partition("# ")
        if hash_ and (not code.strip() or code.lstrip().startswith("print(")):
            shown.append(comment.strip())
    return shown


def test_python_blocks_print_their_comments(capsys):
    namespace = {}
    for block in fenced("python"):
        exec(compile(block, "README.md", "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        shown = printed_comments(block)
        assert len(printed) == len(shown), block
        for line, comment in zip(printed, shown):
            if "..." in comment:
                assert line.startswith(comment.split("...")[0]), (line, comment)
            else:
                assert line == comment


def command_lines() -> list:
    """(argv, standard input) of each line of the "Command line" block."""
    section = README.split("## Command line", 1)[1]
    runs = []
    for line in fenced("sh", section)[0].splitlines():
        document = None
        if line.startswith("echo "):
            echo, line = line.split(" | ", 1)
            document = shlex.split(echo)[1] + "\n"
        argv = shlex.split(line, comments=True)
        assert argv[0] == "spindual", line
        runs.append((argv[1:], document))
    return runs


def test_command_lines_exit_as_documented(capsys, monkeypatch):
    codes, outputs = [], {}
    for argv, document in command_lines():
        if document is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(document))
        codes.append(main(argv))
        outputs[" ".join(argv)] = capsys.readouterr().out
    assert codes == COMMAND_LINE_EXIT_CODES
    # "the 12-row rank-4 table"
    assert len(outputs["table --group D --rank 4"].splitlines()) == 12


def test_witness_group_named_in_readme(capsys):
    assert main(["classify", "--group", "B", "--pairs", "2,2;0,0", "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["witness"]["group"] == "B12"
    assert '`"B12"` for `--group B --pairs "2,2;0,0"`' in README
