"""The README's Library example runs as written."""

import csv
import re
from pathlib import Path

from fsskit.cli import main

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
