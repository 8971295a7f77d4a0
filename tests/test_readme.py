"""The README's examples run as written.

Each `msc3 ...` command of "Quick start", with its `\\` continuation lines
joined, goes through msc3.cli.main in a fresh directory and must exit 0;
the "Python API" block is executed.
"""

import os
import re
import shlex

from msc3.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def _block(section, lang):
    # the first ```lang block under the "## section" heading
    with open(README, encoding="utf-8") as fh:
        body = fh.read().split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_quick_start_commands_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _block("Quick start", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("msc3 ")]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_python_api_block_runs():
    exec(_block("Python API", "python"), {})
