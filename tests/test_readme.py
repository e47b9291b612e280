"""The README's Library example runs as written, and the README names no
flag and leaves out no setting that the command line does not have."""

import argparse
import csv
import re
from pathlib import Path

from fsskit.cli import build_parser, main
from fsskit.config import OVERRIDE_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced python block of the README's "Library" section, padded with
    blank lines so tracebacks give its line numbers in the README."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    block = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    return "\n" * text.count("\n", 0, block.start(1)) + block.group(1)


def test_library_example_matches_score(tmp_path, monkeypatch, capsys):
    census = tmp_path / "census"
    assert main(["synth", "--seed", "7", "--researchers", "300", "--institutions", "4",
                 "--out", str(census)]) == 0
    # The example uses the command line's default window and thresholds.
    assert main(["score", "--data", str(census), "--output-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "scores.csv", newline="", encoding="utf-8") as fh:
        expected = next(float(row["value"]) for row in csv.DictReader(fh)
                        if (row["level"], row["unit_id"], row["indicator"])
                        == ("university", "U01", "fss_u"))
    capsys.readouterr()

    monkeypatch.chdir(census)
    exec(compile(library_example(), str(README), "exec"), {})
    assert float(capsys.readouterr().out) == expected


def fsskit_options() -> set[str]:
    """Every option string of fsskit's parser and of each subcommand's."""
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    return {option for p in parsers for action in p._actions for option in action.option_strings}


def test_readme_names_only_flags_fsskit_has():
    # The install line's pip flags are pip's, not fsskit's.
    text = "\n".join(line for line in README.read_text(encoding="utf-8").splitlines()
                     if not line.startswith("pip "))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert "--baseline-file" in named
    assert named - fsskit_options() == set()


def test_readme_keys_sentence_names_every_setting():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"\nKeys: (.*?)\.\s", text, re.S).group(1)
    assert [key for key in OVERRIDE_KEYS if f"`{key}`" not in sentence] == []
