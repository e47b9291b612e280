"""Data model and CSV ingestion for the research census.

A Corpus ties together researchers (each classified in exactly one field),
their publications with ordered bylines, the field taxonomy (field code ->
discipline code plus the field's co-authorship convention), and the national
salary schedule. It is frozen: it holds only what was loaded, and every
downstream module only reads it. The floors that choose which researchers
and units are scored reduce the credit ledger (indicators), not the corpus.

load_corpus reads each file in one pass and builds each record once.
Every fsskit record, these included, is a NamedTuple: an immutable tuple
with named fields, cheap to build and hold, and importing it loads no
module beyond typing. Each byline row is appended to its publication's
byline list in file order, and only a byline whose rows arrive out of
position order is sorted. Publications outside the observation window are
dropped, but every byline row, theirs included, must name a known
publication, a position >= 1 and an institution.

A census repeats a few values in many rows, so load_corpus holds each
repeated value once: every institution id, field, rank and department
string; each subject category and each distinct category tuple; each year;
and each distinct Authorship, whose researcher_id is the census record's
own Researcher.id. Sharing is safe because every one of these is immutable
(str, int, tuple, NamedTuple) and the package never compares them by
identity. The lookup tables that find the shared values are local to the
call, so nothing outlives loading. A loaded census then holds less than
half the memory it would with every cell on its own.

The same repetition saves work: load_corpus parses and checks each distinct
year, citations, subject_categories, position and institution_id cell once
per load, and a row whose cells it has seen costs a dict lookup per cell. A
cell is remembered only after it passes every check of its column, so a bad
cell is still parsed, and blamed, at the first row that holds it, and each
row's checks run in the same order whether its cells were seen before or not.

File formats (UTF-8, with or without a byte order mark, comma-delimited,
header row, '.' decimal):

    researchers.csv   id,name,sds,rank,salary,institution,department,years_in_window
    publications.csv  id,year,citations,subject_categories   (categories ';'-separated)
    bylines.csv       publication_id,position,researcher_id,institution_id
    taxonomy.csv      sds,uda,convention                     (alphabetical|position_weighted)
    salaries.csv      rank,seniority_band,salary_per_year

name, salary, department, researcher_id and seniority_band may be empty.
A byline row with an empty researcher_id is an external (non-census) author:
it counts toward the byline length for fractional credit but receives no
score.

read_table and write_table are the package's only CSV reader and writer;
the baseline, score, ranking and DMU files go through them too. read_table
strips every cell, except in a file whose bytes show that no cell can need
it (_plain): one with no quote, no non-ASCII byte and no whitespace but
line feeds, such as the publications and bylines a census export writes.
write_json writes report.json and comparison.json. A file that cannot be
written is an InputError naming it.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .credit import CONVENTIONS
from .errors import ComputationError, InputError, LoadError

RESEARCHER_COLUMNS = ("id", "name", "sds", "rank", "salary", "institution", "department", "years_in_window")
PUBLICATION_COLUMNS = ("id", "year", "citations", "subject_categories")
BYLINE_COLUMNS = ("publication_id", "position", "researcher_id", "institution_id")
TAXONOMY_COLUMNS = ("sds", "uda", "convention")
SALARY_COLUMNS = ("rank", "seniority_band", "salary_per_year")


class Researcher(NamedTuple):
    id: str
    sds_code: str
    rank: str
    years_in_window: float
    institution_id: str
    name: str = ""
    salary_per_year: float | None = None  # explicit value; overrides the schedule
    department_id: str | None = None


class Authorship(NamedTuple):
    position: int
    institution_id: str
    researcher_id: str | None = None  # None for external (non-census) authors


class Publication(NamedTuple):
    id: str
    year: int
    citations: int
    subject_categories: tuple[str, ...]
    byline: tuple[Authorship, ...]  # ordered by position, 1..n with no gaps


class FieldTaxonomy(NamedTuple):
    """Field -> discipline mapping plus per-field co-authorship convention."""

    uda_of_sds: dict[str, str]
    convention_of_sds: dict[str, str]


class SalarySchedule(NamedTuple):
    """National average yearly salary keyed by (rank, seniority band).

    A band of None is the rank-level average. When a rank has only banded
    entries, the rank-level value is the mean of its bands.
    """

    entries: dict[tuple[str, str | None], float]

    def lookup(self, rank: str) -> float:
        if (rank, None) in self.entries:
            return self.entries[(rank, None)]
        banded = [v for (r, band), v in sorted(self.entries.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")) if r == rank]
        if not banded:
            raise InputError(f"rank {rank!r} not present in the salary schedule")
        return sum(banded) / len(banded)

    def ranks(self) -> list[str]:
        return sorted({rank for rank, _ in self.entries})


class Corpus(NamedTuple):
    researchers: dict[str, Researcher]
    publications: dict[str, Publication]
    taxonomy: FieldTaxonomy
    salaries: SalarySchedule

    def publications_of(self, researcher_id: str) -> list[tuple[Publication, int]]:
        """(publication, byline position) pairs for one census researcher,
        in publication id order."""
        if researcher_id not in self.researchers:
            return []
        return [(self.publications[pid], entry.position)
                for pid in sorted(self.publications)
                for entry in self.publications[pid].byline
                if entry.researcher_id == researcher_id]

    def staff(self, institution_id: str | None = None, sds_code: str | None = None,
              uda_code: str | None = None, department_id: str | None = None) -> list[Researcher]:
        """Researchers filtered by unit, in id order."""
        out = []
        for rid in sorted(self.researchers):
            r = self.researchers[rid]
            if institution_id is not None and r.institution_id != institution_id:
                continue
            if sds_code is not None and r.sds_code != sds_code:
                continue
            if uda_code is not None and self.taxonomy.uda_of_sds[r.sds_code] != uda_code:
                continue
            if department_id is not None and r.department_id != department_id:
                continue
            out.append(r)
        return out

    def institutions(self) -> list[str]:
        return sorted({r.institution_id for r in self.researchers.values()})


class LoadReport(NamedTuple):
    row_counts: dict[str, int]
    warnings: list[str]


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

# The bytes of a plain table: printable ASCII other than '"', and '\n'.
_PLAIN = bytes(range(0x21, 0x7F)).replace(b'"', b"") + b"\n"
_SCAN_CHUNK = 1 << 20


def _plain(fd: int) -> bool:
    """Whether ``fd`` is a regular file of plain bytes only. Such a file has no
    quoted cell, no line break inside a cell and no whitespace, so str.strip
    leaves each of its cells as it is. The bytes are read with os.pread, so the
    handle's position does not move; nothing is decoded, and a pipe, which
    could not be read twice, is not read at all."""
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        return False
    offset = 0
    while chunk := os.pread(fd, _SCAN_CHUNK, offset):
        if chunk.translate(None, _PLAIN):
            return False
        offset += len(chunk)
    return True


def read_table(path, columns, optional=()) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line, cells) for every data row of the CSV table at ``path``.

    ``cells`` holds the named columns, ``columns`` first and then
    ``optional``, each stripped of surrounding whitespace. Every name in
    ``columns`` must be in the header; ``columns`` may instead be a function
    from the header to those names. An absent optional column, and the
    missing trailing cells of a short row, read as "". Blank lines are
    skipped; a repeated column name and a row wider than the header are
    errors, but unnamed columns, as a spreadsheet's trailing ``,,`` writes,
    may repeat: no caller reads one. Every error is a LoadError that names the file and, where it
    has one, the line. A leading byte order mark is dropped.

    Stripping every cell is a large part of the cost of a row, so it is
    skipped in a file that _plain finds has no byte it could remove; such a
    row's cells are passed through as csv read them.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise LoadError("file not found", file=path) from None
    except OSError as exc:
        raise LoadError(f"cannot be read: {exc.strerror}", file=path) from None
    with fh:
        plain = _plain(fh.fileno())
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader, ())]
            if not header:
                raise LoadError("missing header row", file=path)
            repeated = sorted({name for name in header if name and header.count(name) > 1})
            if repeated:
                raise LoadError(f"repeated column(s) {', '.join(repeated)}", file=path, line=1)
            if callable(columns):
                columns = columns(header)
            missing = [c for c in columns if c not in header]
            if missing:
                raise LoadError(f"missing column(s) {', '.join(missing)}", file=path, line=1)
            width = len(header)
            header += [c for c in optional if c not in header]
            index = [header.index(c) for c in (*columns, *optional)]
            full = len(header)
            if plain and index == list(range(full)):
                pick = tuple
            else:
                # One itemgetter picks a row's cells; for fewer than two it
                # would not return a tuple.
                pick = itemgetter(*index) if len(index) > 1 else lambda row: tuple([row[i] for i in index])
            blank = [""] * full
            for row in reader:
                n = len(row)
                if n > width:
                    raise LoadError("row has more fields than the header", file=path,
                                    line=reader.line_num)
                if n < full:
                    if not n:
                        continue
                    row += blank[n:]
                yield reader.line_num, pick(row) if plain else tuple(map(str.strip, pick(row)))
        except UnicodeDecodeError:
            raise LoadError("not UTF-8 text", file=path) from None
        except csv.Error as exc:
            raise LoadError(str(exc), file=path, line=reader.line_num) from None


def write_table(path, header, rows) -> Path:
    """Write one CSV table: a header row, then ``rows``.

    Cells are quoted only where they need it; floats are written in
    shortest round-trip form and None as "".
    """
    path = Path(path)
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(path, data) -> Path:
    """Write ``data`` as JSON, indented, keys sorted. JSON has no NaN or
    infinity, so a value that is one is a ComputationError naming the file,
    and nothing is written."""
    import json  # imported here: only score and compare write JSON

    path = Path(path)
    try:
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ComputationError(f"{path}: a value to write is not a finite number") from None
    with _create(path) as fh:
        fh.write(text)
    return path


def _create(path: Path):
    """``path`` opened for writing text; one that cannot be is an InputError
    naming it."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot be written: {exc.strerror}") from None


def parse_float(value: str, path: Path, line: int, column: str) -> float:
    """One numeric cell, in ASCII and without the ``_`` separators float()
    accepts; the nan and infinities float() accepts are refused, so none
    reaches a score."""
    try:
        if not value.isascii() or "_" in value:
            raise ValueError
        number = float(value)
    except ValueError:
        raise LoadError(f"not a number: {value!r}", file=path, line=line, column=column) from None
    if not math.isfinite(number):
        raise LoadError(f"not a finite number: {number!r}", file=path, line=line, column=column)
    return number


def parse_value(value: str, path: Path, line: int, column: str) -> float:
    """One number cell where 0 is allowed; a nonzero one too small for a
    float (1e-400), which would read as 0, is refused."""
    number = parse_float(value, path, line, column)
    if number == 0.0 and any(digit in "123456789" for digit in value.lower().partition("e")[0]):
        raise LoadError(f"nonzero but too small for a float: {value!r}", file=path, line=line,
                        column=column)
    return number


def parse_int(value: str, path: Path, line: int, column: str) -> int:
    """One integer cell, in ASCII and without ``_`` separators. Scores
    divide integers as floats, so one too large for a float is refused."""
    try:
        if not value.isascii() or "_" in value:
            raise ValueError
        number = int(value)
        float(number)
    except ValueError:
        raise LoadError(f"not an integer: {value!r}", file=path, line=line, column=column) from None
    except OverflowError:
        raise LoadError("integer too large for a float", file=path, line=line, column=column) from None
    return number


# Bounds on the size of a positive quantity (years_in_window, a salary,
# c_bar) and of a citation count. Within them a labour cost lies between
# 1e-100 and 1e100 and a normalized impact is at most 1e100, so no score,
# sum or mean of them can overflow to inf or turn nan.
QUANTITY_MIN = 1e-50
QUANTITY_MAX = 1e50


def parse_quantity(value: str, path: Path, line: int, column: str) -> float:
    """One positive quantity cell: a number from QUANTITY_MIN to QUANTITY_MAX."""
    number = parse_float(value, path, line, column)
    if number <= 0:
        raise LoadError(f"{column} must be positive", file=path, line=line, column=column)
    if not QUANTITY_MIN <= number <= QUANTITY_MAX:
        raise LoadError(f"{column} must be between {QUANTITY_MIN:g} and {QUANTITY_MAX:g}, "
                        f"got {number!r}", file=path, line=line, column=column)
    return number


def require(value: str, path: Path, line: int, column: str) -> str:
    if not value:
        raise LoadError("value is required", file=path, line=line, column=column)
    return value


def load_taxonomy(path) -> FieldTaxonomy:
    path = Path(path)
    uda_of: dict[str, str] = {}
    convention_of: dict[str, str] = {}
    for line, (sds, uda, convention) in read_table(path, TAXONOMY_COLUMNS):
        require(sds, path, line, "sds")
        if sds in uda_of:
            raise LoadError(f"duplicate field code {sds!r}", file=path, line=line, column="sds")
        if convention not in CONVENTIONS:
            raise LoadError(
                f"convention must be one of {'/'.join(CONVENTIONS)}, got {convention!r}",
                file=path, line=line, column="convention",
            )
        uda_of[sds] = require(uda, path, line, "uda")
        convention_of[sds] = convention
    return FieldTaxonomy(uda_of_sds=uda_of, convention_of_sds=convention_of)


def load_salary_schedule(path) -> SalarySchedule:
    path = Path(path)
    entries: dict[tuple[str, str | None], float] = {}
    for line, (rank, salary, band) in read_table(path, ("rank", "salary_per_year"), ("seniority_band",)):
        require(rank, path, line, "rank")
        band = band or None
        if (rank, band) in entries:
            raise LoadError(f"duplicate schedule entry for rank {rank!r}", file=path, line=line, column="rank")
        entries[(rank, band)] = parse_quantity(salary, path, line, "salary_per_year")
    return SalarySchedule(entries=entries)


def load_corpus(researcher_file, publication_file, byline_file, taxonomy_file,
                salary_file, config) -> tuple[Corpus, LoadReport]:
    """Load and cross-link the five census files.

    Only ``config.window``, the observation window, is read from ``config``.
    Publications outside the window are skipped with a warning. Byline rows
    whose researcher_id is unknown become external authors (warning).

    Each file is read in one pass. Every byline row's own cells are checked
    first, whatever the window: a known publication_id, an integer position
    >= 1 and a non-empty institution_id. The checks on a whole byline apply
    only to publications in the window: no repeated position and no census
    researcher listed twice, each blamed on its row, then at least one row
    and positions 1..n without gaps.

    Each byline is built as a list in file order. While a publication's rows
    arrive in position order, a row at position len(list) + 1 cannot repeat
    one, so only the other rows scan the list for their position; the first
    such row marks the byline as out of order, and only those bylines are
    sorted at the end.
    """
    report = LoadReport(row_counts={}, warnings=[])
    taxonomy = load_taxonomy(taxonomy_file)
    salaries = load_salary_schedule(salary_file)
    start, end = config.window
    # Each repeated string, year and category tuple is held once. The tables
    # that do it are local to this call.
    held: dict = {}

    def share(value):
        """The first value loaded that equals ``value``."""
        return held.setdefault(value, value)

    researcher_path = Path(researcher_file)
    researchers: dict[str, Researcher] = {}
    ranks = set(salaries.ranks())
    rows = read_table(researcher_path, ("id", "sds", "rank", "institution", "years_in_window"),
                      ("name", "salary", "department"))
    for line, (rid, sds, rank, institution, years, name, salary, department) in rows:
        require(rid, researcher_path, line, "id")
        if rid in researchers:
            raise LoadError(f"duplicate researcher id {rid!r}", file=researcher_path, line=line, column="id")
        require(sds, researcher_path, line, "sds")
        if sds not in taxonomy.uda_of_sds:
            raise LoadError(f"unknown field code {sds!r}", file=researcher_path, line=line, column="sds")
        years = parse_quantity(years, researcher_path, line, "years_in_window")
        salary = parse_quantity(salary, researcher_path, line, "salary") if salary else None
        require(rank, researcher_path, line, "rank")
        if salary is None and rank not in ranks:
            raise LoadError(f"rank {rank!r} not present in the salary schedule",
                            file=researcher_path, line=line, column="rank")
        researchers[rid] = Researcher(
            id=rid,
            name=name,
            sds_code=share(sds),
            rank=share(rank),
            salary_per_year=salary,
            institution_id=share(require(institution, researcher_path, line, "institution")),
            department_id=share(department) if department else None,
            years_in_window=years,
        )
    report.row_counts["researchers"] = len(researchers)

    publication_path = Path(publication_file)
    # pid -> (year, citations, categories, byline in file order, whether its
    # rows so far came in position order), or None for a publication outside
    # the window.
    kept: dict[str, tuple[int, int, tuple[str, ...], list[Authorship], bool] | None] = {}
    # Each distinct year, citations and subject_categories cell is parsed and
    # checked once: a cell enters its memo only after it passes every check
    # of its column, so a bad cell is blamed at the first row that holds it.
    years: dict[str, int] = {}
    counts: dict[str, int] = {}
    category_lists: dict[str, tuple[str, ...]] = {}
    for line, (pid, year_cell, citations_cell, categories_cell) in read_table(publication_path,
                                                                               PUBLICATION_COLUMNS):
        require(pid, publication_path, line, "id")
        if pid in kept:
            raise LoadError(f"duplicate publication id {pid!r}", file=publication_path, line=line, column="id")
        year = years.get(year_cell)
        if year is None:
            year = years[year_cell] = share(parse_int(year_cell, publication_path, line, "year"))
        citations = counts.get(citations_cell)
        if citations is None:
            citations = parse_int(citations_cell, publication_path, line, "citations")
            if citations < 0:
                raise LoadError("citations must be >= 0", file=publication_path, line=line, column="citations")
            if citations > QUANTITY_MAX:
                raise LoadError(f"citations must be at most {QUANTITY_MAX:g}", file=publication_path,
                                line=line, column="citations")
            counts[citations_cell] = citations
        categories = category_lists.get(categories_cell)
        if categories is None:
            categories = share(tuple(sorted({share(c.strip()) for c in categories_cell.split(";")
                                             if c.strip()})))
            if not categories:
                raise LoadError("at least one subject category is required", file=publication_path,
                                line=line, column="subject_categories")
            category_lists[categories_cell] = categories
        kept[pid] = (year, citations, categories, [], True) if start <= year <= end else None
    report.row_counts["publications"] = len(kept)
    skipped = sum(pub is None for pub in kept.values())
    if skipped:
        report.warnings.append(f"skipped {skipped} publication(s) outside the {start}-{end} window")
    if not kept:
        report.warnings.append("publication file is empty; all scores will be zero")

    byline_path = Path(byline_file)
    # Each distinct position and institution_id cell is parsed and checked
    # once, as in the publications' memos above.
    positions: dict[str, int] = {}
    institutions: dict[str, str] = {}
    # One Authorship per distinct (position, institution_id, researcher_id).
    authorships: dict[tuple[int, str, str | None], Authorship] = {}
    unresolved = 0
    n_rows = 0
    for line, (pid, position_cell, rid, institution_cell) in read_table(byline_path, BYLINE_COLUMNS):
        n_rows += 1
        pub = kept.get(pid, False)
        if pub is False:
            require(pid, byline_path, line, "publication_id")  # "" is never a key
            raise LoadError(f"byline references unknown publication {pid!r}",
                            file=byline_path, line=line, column="publication_id")
        position = positions.get(position_cell)
        if position is None:
            position = parse_int(position_cell, byline_path, line, "position")
            if position < 1:
                raise LoadError("position must be >= 1", file=byline_path, line=line, column="position")
            positions[position_cell] = position
        institution = institutions.get(institution_cell)
        if institution is None:
            institution = institutions[institution_cell] = share(
                require(institution_cell, byline_path, line, "institution_id"))
        if pub is None:  # outside the window: only the row's own cells are checked
            continue
        entries = pub[3]
        # Rows in order so far hold positions 1..len(entries), so the next
        # one cannot be repeated; any other row scans the byline.
        if position != len(entries) + 1 or not pub[4]:
            for entry in entries:
                if entry.position == position:
                    raise LoadError(f"duplicate position {position} for publication {pid!r}",
                                    file=byline_path, line=line, column="position")
            if pub[4]:
                kept[pid] = (*pub[:4], False)
        researcher = researchers.get(rid)
        if researcher is not None:
            rid = researcher.id
            for entry in entries:
                if entry.researcher_id == rid:
                    raise LoadError(f"researcher {rid!r} appears twice in the byline of {pid!r}",
                                    file=byline_path, line=line, column="researcher_id")
        else:
            if rid:
                unresolved += 1
            rid = None
        key = (position, institution, rid)
        authorship = authorships.get(key)
        if authorship is None:
            authorship = authorships[key] = Authorship(position, institution, rid)
        entries.append(authorship)
    report.row_counts["bylines"] = n_rows
    if unresolved:
        report.warnings.append(f"{unresolved} byline author(s) did not resolve to a census "
                               "researcher; treated as external")

    # Each load record is dropped as its publication is built, so the lists
    # and the finished bylines never all exist at once.
    publications: dict[str, Publication] = {}
    for pid in sorted(kept):
        pub = kept.pop(pid)
        if pub is None:
            continue
        year, citations, categories, entries, ordered = pub
        if not entries:
            raise LoadError(f"publication {pid!r} has no byline", file=byline_path)
        if not ordered:
            # Positions are unique and >= 1, so the sort compares positions
            # alone, and they are 1..n exactly when the largest is n.
            entries.sort()
            if entries[-1].position != len(entries):
                raise LoadError(f"byline positions for publication {pid!r} are not 1..n without gaps",
                                file=byline_path, column="position")
        publications[pid] = Publication(pid, year, citations, categories, tuple(entries))

    corpus = Corpus(
        researchers=researchers,
        publications=publications,
        taxonomy=taxonomy,
        salaries=salaries,
    )
    if not publications:
        report.warnings.append("corpus has no publications in the observation window")
    return corpus, report


# ---------------------------------------------------------------------------
# Canonical export (round-trip oracle and fixture generation)
# ---------------------------------------------------------------------------

def export_corpus(corpus: Corpus, directory) -> dict[str, Path]:
    """Write the five canonical CSVs; rows sorted by primary key, floats in
    shortest round-trip form. export(load(files)) is a fixpoint."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = {
        "researchers.csv": (RESEARCHER_COLUMNS, (
            (r.id, r.name, r.sds_code, r.rank, r.salary_per_year, r.institution_id,
             r.department_id, r.years_in_window)
            for r in (corpus.researchers[rid] for rid in sorted(corpus.researchers))
        )),
        "publications.csv": (PUBLICATION_COLUMNS, (
            (p.id, p.year, p.citations, ";".join(p.subject_categories))
            for p in (corpus.publications[pid] for pid in sorted(corpus.publications))
        )),
        "bylines.csv": (BYLINE_COLUMNS, (
            (pid, a.position, a.researcher_id, a.institution_id)
            for pid in sorted(corpus.publications)
            for a in corpus.publications[pid].byline
        )),
        "taxonomy.csv": (TAXONOMY_COLUMNS, (
            (sds, corpus.taxonomy.uda_of_sds[sds], corpus.taxonomy.convention_of_sds[sds])
            for sds in sorted(corpus.taxonomy.uda_of_sds)
        )),
        "salaries.csv": (SALARY_COLUMNS, (
            (rank, band, salary)
            for (rank, band), salary in sorted(corpus.salaries.entries.items(),
                                               key=lambda kv: (kv[0][0], kv[0][1] or ""))
        )),
    }
    return {name: write_table(directory / name, header, rows)
            for name, (header, rows) in tables.items()}
