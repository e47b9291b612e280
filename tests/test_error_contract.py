"""The error contracts of every command that reads a file, pinned over
seeded corruptions of single cells and of file structure.

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

A sixth contract breaks structure instead of cells. `score` reads the
census, a baseline file copied from an earlier run's `baselines.csv` and a
`--config` file that names it; each case drops, duplicates, cuts, widens or
swaps a data row, renames, swaps or drops a header name, or leaves a file
empty or header-only, or breaks the config file (truncated JSON, a value of
the wrong type, an unknown key, a byte order mark, or JSON that Python's
decoder or the file system cannot take). An exit 2 for the config file may
name the key instead of the file.

Apart from the digests, every case must keep the contract's property: no
case raises or exits 1, and the first line of each exit 2 names the
corrupted file or a census file whose rows cite the corrupted file's keys
(``CITED_BY``), as researchers.csv cites taxonomy.csv's fields.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fsskit.cli import main
from fsskit.config import OVERRIDE_KEYS, ExclusionThresholds
from conftest import euro_dmu_table

FILES = ("researchers.csv", "publications.csv", "bylines.csv", "taxonomy.csv", "salaries.csv")
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
STRUCTURE_CASES = 300
STRUCTURE_SEED = 20265
STRUCTURE_DIGEST = "491bd4305ae899a9b4c9ec81bd7f41386f238afb42659863cf18d824c4f3f75b"
# The census files whose rows cite each file's keys: an exit 2 for a bad key
# may blame the row that cites it.
CITED_BY = {"researchers.csv": ("bylines.csv",), "publications.csv": ("bylines.csv",),
            "taxonomy.csv": ("researchers.csv",), "salaries.csv": ("researchers.csv",)}


def blamed(file: str) -> tuple[str, ...]:
    """What the first line of an exit 2 for a corrupted ``file`` may name."""
    return (file, *CITED_BY.get(file, ()))


def corruptions(texts, cases, rng):
    """(label, file, corrupted text, what an exit 2 may blame) of each case;
    ``texts`` maps each file's name to its text."""
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
        yield (f"{name} line {row + 1} {header[column]}={value!r}", name, "\n".join(lines),
               blamed(name))


def outcomes(data, names, cases, seed, command, generate=corruptions) -> str:
    """One line per case: what was corrupted, the exit code and the first
    stderr line, with the data directory's path taken out. Each case
    corrupts one of the files ``names`` in ``data`` as ``generate`` says and
    runs ``command``, and must keep the contract's property (see the module
    docstring)."""
    texts = {name: (data / name).read_text() for name in names}
    listing = []
    for label, name, text, names_blamed in generate(texts, cases, random.Random(seed)):
        path = data / name
        path.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(command)
        path.write_text(texts[name])
        first = (err.getvalue().splitlines() or [""])[0].replace(f"{data}{os.sep}", "")
        listing.append(f"{label}: {code} {first}")
        assert code in (0, 2), listing[-1]
        assert code == 0 or any(blame in first for blame in names_blamed), listing[-1]
    return "\n".join(listing)


# The structural corruptions of a CSV file, of its rows, its header or the whole.
TABLE_KINDS = ("drop row", "duplicate row", "cut row", "widen row", "swap rows",
               "rename column", "swap columns", "drop column", "header only", "empty file")
CONFIG = {"baseline_file": "baselines.csv", "exclusions": {"min_years": 0}, "output_dir": "out"}
# Values of a type, or in a range, that some key's rule refuses.
WRONG = ("3", True, None, [], {}, 1.5, -1, float("inf"), [2010, 2006])
# Config files that JSON accepts or nearly does but no run can use.
UNUSABLE = {
    "nested 200000 deep": ("[" * 200_000, ()),
    "a 5000-digit integer": ('{"min_staff_uda": %s}' % ("9" * 5000), ()),
    "an unencodable output_dir": ('{"output_dir": "\\ud800x"}', ("config key 'output_dir'",)),
    "a NUL baseline_file": ('{"baseline_file": "\\u0000"}', ("config key 'baseline_file'",)),
}


def broken_table(text, rng):
    """(label, corrupted text) of one structural corruption of the CSV ``text``."""
    header, *rows = (line.split(",") for line in text.split("\n")[:-1])
    kind = rng.choice(TABLE_KINDS)
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    c, d = rng.sample(range(len(header)), 2)
    label = f"{kind} at line {i + 2}"
    if kind == "drop row":
        del rows[i]
    elif kind == "duplicate row":
        rows.insert(i, rows[i])
    elif kind == "cut row":
        label += f" column {header[c]}"
        del rows[i][c]
    elif kind == "widen row":
        label += f" column {header[c]}"
        rows[i].insert(c, rows[i][c])
    elif kind == "swap rows":
        label += f" and {j + 2}"
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "rename column":
        label = f"{kind} {header[c]}"
        header[c] += "_renamed"
    elif kind == "swap columns":
        label = f"{kind} {header[c]} and {header[d]}"
        header[c], header[d] = header[d], header[c]
    elif kind == "drop column":
        label = f"{kind} {header[c]}"
        del header[c]
    elif kind == "header only":
        label, rows = kind, []
    else:
        return kind, ""
    return label, "".join(",".join(cells) + "\n" for cells in (header, *rows))


def broken_config(text, rng):
    """(label, corrupted text, what else than the file an exit 2 may name)
    of one corruption of the config file ``text``."""
    settings = json.loads(text)
    kind = rng.choice(("truncated", "wrong type", "unknown key", "byte order mark", "unusable"))
    if kind == "truncated":
        cut = rng.randrange(len(text))
        return f"truncated to {cut} chars", text[:cut], ()
    if kind == "wrong type":
        key, value = rng.choice(("exclusions", *OVERRIDE_KEYS)), rng.choice(WRONG)
        owner = settings["exclusions"] if key in ExclusionThresholds._fields else settings
        owner[key] = value
        # A string is a path's right type, so a run may blame the file it names.
        named = (f"{value}: ",) if isinstance(value, str) else ()
        return f"{key}={value!r}", json.dumps(settings), (f"config key {key!r}", *named)
    if kind == "unknown key":
        key = rng.choice(("seed", "workers", "Scope", "min_papers"))
        where = rng.choice(("", "exclusions"))
        (settings[where] if where else settings)[key] = 1
        return f"unknown key {key} {where}".rstrip(), json.dumps(settings), (f"key(s): {key}",)
    if kind == "byte order mark":
        return kind, "\ufeff" + text, ()
    label = rng.choice(sorted(UNUSABLE))
    return label, *UNUSABLE[label]


def structural(texts, cases, rng):
    """(label, file, corrupted text, what an exit 2 may blame) of each case:
    a CSV file broken (broken_table), or the config file broken
    (broken_config), which may also be blamed by the key it breaks."""
    assert not any('"' in text for name, text in texts.items() if name.endswith(".csv"))
    names = list(texts)
    for _ in range(cases):
        name = rng.choice(names)
        if name == "config.json":
            label, text, keys = broken_config(texts[name], rng)
            yield f"{name} {label}", name, text, (name, *keys)
        else:
            label, text = broken_table(texts[name], rng)
            yield f"{name} {label}", name, text, blamed(name)


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


def test_structural_corruption_outcomes_match_recorded_digest(census, tmp_path, monkeypatch):
    # The config file names the baseline file and the output directory, with
    # no flag to override them, so its corruptions reach both keys; the run
    # works in the data directory, so no message carries a temporary path.
    data = tmp_path / "data"
    data.mkdir()
    for name in FILES:
        (data / name).write_text((census / name).read_text())
    with redirect_stdout(io.StringIO()):
        assert main(["score", "--data", str(data), "--min-years", "0",
                     "--output-dir", str(tmp_path / "first")]) == 0
    (data / "baselines.csv").write_text((tmp_path / "first" / "baselines.csv").read_text())
    (data / "config.json").write_text(json.dumps(CONFIG))
    monkeypatch.chdir(data)
    listing = outcomes(data, (*FILES, "baselines.csv", "config.json"), STRUCTURE_CASES,
                       STRUCTURE_SEED, ["score", "--data", ".", "--config", "config.json"],
                       structural)
    assert digest_of(listing) == STRUCTURE_DIGEST, listing


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
    listing = outcomes(data, ("a.csv", "b.csv"), COMPARE_CASES, COMPARE_SEED,
                       ["compare", "--a", str(data / "a.csv"), "--b", str(data / "b.csv"),
                        "--out", str(tmp_path / "out")])
    assert digest_of(listing) == COMPARE_DIGEST, listing


def test_dmu_table_corruption_outcomes_match_recorded_digest(tmp_path):
    data = tmp_path / "tables"
    data.mkdir()
    euro_dmu_table(data / "dmus.csv", n=40)
    listing = outcomes(data, ("dmus.csv",), DMU_CASES, DMU_SEED,
                       ["dea", "--dmus", str(data / "dmus.csv"), "--model", "both",
                        "--output-dir", str(tmp_path / "out")])
    assert digest_of(listing) == DMU_DIGEST, listing
