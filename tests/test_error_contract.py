"""The error contracts of every command that reads a file, pinned over
seeded single-cell corruptions.

A small synthetic census goes through `score`, `rank --level university`
and corpus-mode `dea` once per case, with one cell of one input file
replaced by a bad (or merely odd) value; `rank` and `dea` run at the
default floors, so the tenure floor applies. A small DMU table in euros
goes through `dea --dmus`, and two researcher rankings of the census go
through `compare`, the same way. Each case's exit code and first stderr
line, with the data directory's path taken out, are listed and pinned as
one sha256 digest per command, the way `test_golden.py` pins artifacts. A loader change that moves which cell is
blamed, or how, or that turns an exit 2 into an exit 1 or a traceback,
fails this test; such a change re-records the digest and says why.

Apart from the digests, every case must keep the contract's property: no
case raises or exits 1, and the first line of each exit 2 names the
corrupted file or a census file whose rows cite the corrupted file's keys
(``CITED_BY``), as researchers.csv cites taxonomy.csv's fields.
"""

import hashlib
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fsskit.cli import main
from conftest import euro_dmu_table

FILES = ("researchers", "publications", "bylines", "taxonomy", "salaries")
# Cells a user could plausibly write, good and bad; OTHER_ROW takes the same
# column's cell from a neighbouring row, which repeats ids.
OTHER_ROW = object()
VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1.5", "1e400", "1e-400", "abc", "1_000",
          "٣", "99999999999999999999999999", "x;y", "UNKNOWN", OTHER_ROW)
CASES = 200
SEED = 20260
DIGEST = "d65f6122259b7db5cb650270fe809e942475c12408a1d978f663ddd6567a274c"
DMU_CASES = 60
DMU_SEED = 20261
DMU_DIGEST = "87f84dbc8e5f979f070e2f24a818b5157579ace16d8a28cf3eba0ab4389e6344"
RANK_CASES = 150
RANK_SEED = 20262
RANK_DIGEST = "52624ea737b14b33dac6bde1fdd2ed713038fc3a681e5ed63af47e0022f26433"
DEA_CASES = 100
DEA_SEED = 20263
DEA_DIGEST = "6d2cbb8dfe99d7f586ff78598e4d39f390d1e866920009d8dd0d1dc7097f12af"
COMPARE_CASES = 100
COMPARE_SEED = 20264
COMPARE_DIGEST = "5da6b373d471e4d03e97023fcfa9ed4c5a53ea28b3c0a02ca9b8a9542a89b217"
# The census files whose rows cite each file's keys: an exit 2 for a bad key
# may blame the row that cites it.
CITED_BY = {"researchers": ("bylines",), "publications": ("bylines",),
            "taxonomy": ("researchers",), "salaries": ("researchers",)}


def corruptions(texts, cases, rng):
    """(file, line, column, value) of each case, and the file's corrupted
    text; ``texts`` maps each file's name to its text."""
    assert not any('"' in text for text in texts.values())  # cells split on "," alone
    names = list(texts)
    for _ in range(cases):
        name = rng.choice(names)
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


def outcomes(data, names, cases, seed, command) -> str:
    """One line per case: the cell, the value, the exit code and the first
    stderr line, with the data directory's path taken out. Each case
    corrupts one of the files ``names`` in ``data`` and runs ``command``,
    and must keep the contract's property (see the module docstring)."""
    texts = {name: (data / f"{name}.csv").read_text() for name in names}
    listing = []
    for (name, line, column, value), text in corruptions(texts, cases, random.Random(seed)):
        path = data / f"{name}.csv"
        path.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(command)
        path.write_text(texts[name])
        first = (err.getvalue().splitlines() or [""])[0].replace(f"{data}{os.sep}", "")
        listing.append(f"{name}.csv line {line} {column}={value!r}: {code} {first}")
        assert code in (0, 2), listing[-1]
        assert code == 0 or any(f"{blamed}.csv" in first
                                for blamed in (name, *CITED_BY.get(name, ()))), listing[-1]
    return "\n".join(listing)


def digest_of(listing: str) -> str:
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """The seed-5 census of 100 researchers at 4 institutions; each case
    restores the file it corrupts."""
    census = tmp_path_factory.mktemp("contract") / "census"
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--seed", "5", "--researchers", "100", "--institutions", "4",
                     "--out", str(census)]) == 0
    return census


def test_corruption_outcomes_match_recorded_digest(census, tmp_path):
    listing = outcomes(census, FILES, CASES, SEED,
                       ["score", "--data", str(census), "--min-years", "0",
                        "--output-dir", str(tmp_path / "out")])
    assert digest_of(listing) == DIGEST, listing


def test_university_ranking_corruption_outcomes_match_recorded_digest(census, tmp_path):
    listing = outcomes(census, FILES, RANK_CASES, RANK_SEED,
                       ["rank", "--data", str(census), "--level", "university",
                        "--output-dir", str(tmp_path / "out")])
    assert digest_of(listing) == RANK_DIGEST, listing


def test_corpus_dea_corruption_outcomes_match_recorded_digest(census, tmp_path):
    listing = outcomes(census, FILES, DEA_CASES, DEA_SEED,
                       ["dea", "--data", str(census), "--model", "both",
                        "--output-dir", str(tmp_path / "out")])
    assert digest_of(listing) == DEA_DIGEST, listing


def test_comparison_corruption_outcomes_match_recorded_digest(census, tmp_path):
    # a and b rank the census's researchers by fss_r, raw and standardized.
    data = tmp_path / "rankings"
    for name, extra in (("a", []), ("b", ["--standardize"])):
        with redirect_stdout(io.StringIO()):
            assert main(["rank", "--data", str(census), "--level", "researcher", *extra,
                         "--output-dir", str(data / name)]) == 0
        (data / name / "rankings.csv").replace(data / f"{name}.csv")
    listing = outcomes(data, ("a", "b"), COMPARE_CASES, COMPARE_SEED,
                       ["compare", "--a", str(data / "a.csv"), "--b", str(data / "b.csv"),
                        "--out", str(tmp_path / "out")])
    assert digest_of(listing) == COMPARE_DIGEST, listing


def test_dmu_table_corruption_outcomes_match_recorded_digest(tmp_path):
    data = tmp_path / "tables"
    data.mkdir()
    euro_dmu_table(data / "dmus.csv", n=40)
    listing = outcomes(data, ("dmus",), DMU_CASES, DMU_SEED,
                       ["dea", "--dmus", str(data / "dmus.csv"), "--model", "both",
                        "--output-dir", str(tmp_path / "out")])
    assert digest_of(listing) == DMU_DIGEST, listing
