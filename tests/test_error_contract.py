"""The error contract of `score`, pinned over seeded single-cell corruptions.

A small synthetic census goes through `score` once per case, with one cell
of one input file replaced by a bad (or merely odd) value. Each case's exit
code and first stderr line, with the data directory's path taken out, are
listed and pinned as one sha256 digest, the way `test_golden.py` pins
artifacts. A loader change that moves which cell is blamed, or how, or that
turns an exit 2 into an exit 1 or a traceback, fails this test; such a
change re-records the digest and says why.
"""

import hashlib
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from fsskit.cli import main

FILES = ("researchers", "publications", "bylines", "taxonomy", "salaries")
# Cells a user could plausibly write, good and bad; OTHER_ROW takes the same
# column's cell from a neighbouring row, which repeats ids.
OTHER_ROW = object()
VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1.5", "1e400", "1e-400", "abc", "1_000",
          "٣", "99999999999999999999999999", "x;y", "UNKNOWN", OTHER_ROW)
CASES = 200
SEED = 20260
DIGEST = "d65f6122259b7db5cb650270fe809e942475c12408a1d978f663ddd6567a274c"


def corruptions(census, rng):
    """(file, line, column, value) of each case, and the file's corrupted text."""
    texts = {name: (census / f"{name}.csv").read_text() for name in FILES}
    assert not any('"' in text for text in texts.values())  # cells split on "," alone
    for _ in range(CASES):
        name = rng.choice(FILES)
        lines = texts[name].split("\n")  # the last item is the "" after the final newline
        header = lines[0].split(",")
        row = rng.randrange(1, len(lines) - 1)
        column = rng.randrange(len(header))
        value = rng.choice(VALUES)
        if value is OTHER_ROW:
            value = lines[row - 1 if row > 1 else row + 1].split(",")[column]
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        yield (name, row + 1, header[column], value), "\n".join(lines)


def outcomes(directory) -> str:
    """One line per case: the cell, the value, the exit code and the first
    stderr line, with the census path taken out."""
    census = directory / "census"
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "5", "--researchers", "100", "--institutions", "4",
                     "--out", str(census)]) == 0
    listing = []
    for (name, line, column, value), text in corruptions(census, random.Random(SEED)):
        path = census / f"{name}.csv"
        original = path.read_text()
        path.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(["score", "--data", str(census), "--min-years", "0",
                         "--output-dir", str(directory / "out")])
        path.write_text(original)
        first = (err.getvalue().splitlines() or [""])[0].replace(f"{census}{os.sep}", "")
        listing.append(f"{name}.csv line {line} {column}={value!r}: {code} {first}")
    return "\n".join(listing)


def test_corruption_outcomes_match_recorded_digest(tmp_path):
    listing = outcomes(tmp_path)
    assert hashlib.sha256(listing.encode()).hexdigest() == DIGEST, listing
