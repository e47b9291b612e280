"""Data model and CSV ingestion for the research census.

A Corpus ties together researchers (each classified in exactly one field),
their publications with ordered bylines, the field taxonomy (field code ->
discipline code plus the field's co-authorship convention), and the national
salary schedule. It is immutable after load; every downstream module only
reads it.

File formats (UTF-8, comma-delimited, header row, '.' decimal):

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
the baseline, score, ranking and DMU files go through them too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

from .credit import CONVENTIONS
from .errors import InputError, LoadError, RankNotFoundError

RESEARCHER_COLUMNS = ("id", "name", "sds", "rank", "salary", "institution", "department", "years_in_window")
PUBLICATION_COLUMNS = ("id", "year", "citations", "subject_categories")
BYLINE_COLUMNS = ("publication_id", "position", "researcher_id", "institution_id")
TAXONOMY_COLUMNS = ("sds", "uda", "convention")
SALARY_COLUMNS = ("rank", "seniority_band", "salary_per_year")


@dataclass(frozen=True)
class Researcher:
    id: str
    sds_code: str
    rank: str
    years_in_window: float
    institution_id: str
    name: str = ""
    salary_per_year: float | None = None  # explicit value; overrides the schedule
    department_id: str | None = None


@dataclass(frozen=True)
class Authorship:
    position: int
    institution_id: str
    researcher_id: str | None = None  # None for external (non-census) authors


@dataclass(frozen=True)
class Publication:
    id: str
    year: int
    citations: int
    subject_categories: tuple[str, ...]
    byline: tuple[Authorship, ...]  # ordered by position, 1..n with no gaps


@dataclass(frozen=True)
class FieldTaxonomy:
    """Field -> discipline mapping plus per-field co-authorship convention."""

    uda_of_sds: dict[str, str]
    convention_of_sds: dict[str, str]

    def uda(self, sds_code: str) -> str:
        try:
            return self.uda_of_sds[sds_code]
        except KeyError:
            raise InputError(f"unknown field code: {sds_code!r}") from None

    def convention(self, sds_code: str) -> str:
        try:
            return self.convention_of_sds[sds_code]
        except KeyError:
            raise InputError(f"unknown field code: {sds_code!r}") from None

    def sds_codes(self) -> list[str]:
        return sorted(self.uda_of_sds)


@dataclass(frozen=True)
class SalarySchedule:
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
            raise RankNotFoundError(f"rank {rank!r} not present in the salary schedule")
        return sum(banded) / len(banded)

    def ranks(self) -> list[str]:
        return sorted({rank for rank, _ in self.entries})


@dataclass
class Corpus:
    researchers: dict[str, Researcher]
    publications: dict[str, Publication]
    taxonomy: FieldTaxonomy
    salaries: SalarySchedule
    window: tuple[int, int]
    excluded_institution_udas: frozenset[tuple[str, str]] = frozenset()
    excluded_institutions: frozenset[str] = frozenset()
    _authorships: dict[str, list[tuple[str, int]]] = field(default_factory=dict, repr=False)
    # indicators.credit_ledger's cache; init=False, so dataclasses.replace starts it empty.
    _ledger: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self._authorships:
            index: dict[str, list[tuple[str, int]]] = {}
            for pub_id in sorted(self.publications):
                for entry in self.publications[pub_id].byline:
                    if entry.researcher_id is not None:
                        index.setdefault(entry.researcher_id, []).append((pub_id, entry.position))
            self._authorships = index

    def publications_of(self, researcher_id: str) -> list[tuple[Publication, int]]:
        """(publication, byline position) pairs for one census researcher."""
        if researcher_id not in self.researchers:
            return []
        return [
            (self.publications[pub_id], pos)
            for pub_id, pos in self._authorships.get(researcher_id, [])
        ]

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
            if uda_code is not None and self.taxonomy.uda(r.sds_code) != uda_code:
                continue
            if department_id is not None and r.department_id != department_id:
                continue
            out.append(r)
        return out

    def institutions(self) -> list[str]:
        return sorted({r.institution_id for r in self.researchers.values()})

    def departments(self) -> list[str]:
        return sorted({r.department_id for r in self.researchers.values() if r.department_id})

    def uda_of(self, researcher: Researcher) -> str:
        return self.taxonomy.uda(researcher.sds_code)


@dataclass
class LoadReport:
    row_counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


@dataclass
class ExclusionReport:
    min_years: float
    min_staff_uda: int
    min_staff_total: int
    excluded_researchers: list[tuple[str, str]] = field(default_factory=list)
    excluded_institution_udas: list[tuple[str, str]] = field(default_factory=list)
    excluded_institutions: list[str] = field(default_factory=list)


def resolve_salary(researcher: Researcher, schedule: SalarySchedule) -> float:
    """Yearly cost of one researcher: explicit value if recorded, else the
    schedule average for their rank."""
    if researcher.salary_per_year is not None:
        return researcher.salary_per_year
    return schedule.lookup(researcher.rank)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def read_table(path, columns, optional=()) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line, cells) for every data row of the CSV table at ``path``.

    ``cells`` holds the named columns, ``columns`` first and then
    ``optional``, each stripped of surrounding whitespace. Every name in
    ``columns`` must be in the header; ``columns`` may instead be a function
    from the header to those names. An absent optional column, and the
    missing trailing cells of a short row, read as "". Blank lines are
    skipped; a repeated column name and a row wider than the header are
    errors. Every error is a LoadError that names the file and, where it
    has one, the line.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError("file not found", file=path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader, ())]
            if not header:
                raise LoadError("missing header row", file=path)
            repeated = sorted({name for name in header if header.count(name) > 1})
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
                yield reader.line_num, tuple(map(str.strip, map(row.__getitem__, index)))
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def parse_float(value: str, path: Path, line: int, column: str) -> float:
    """One numeric cell; the nan and infinities float() accepts are refused,
    so none reaches a score."""
    try:
        number = float(value)
    except ValueError:
        raise LoadError(f"not a number: {value!r}", file=path, line=line, column=column) from None
    if not math.isfinite(number):
        raise LoadError(f"not a finite number: {number!r}", file=path, line=line, column=column)
    return number


def parse_int(value: str, path: Path, line: int, column: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise LoadError(f"not an integer: {value!r}", file=path, line=line, column=column) from None


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
        salary = parse_float(salary, path, line, "salary_per_year")
        if salary <= 0:
            raise LoadError("salary must be positive", file=path, line=line, column="salary_per_year")
        entries[(rank, band)] = salary
    return SalarySchedule(entries=entries)


def load_corpus(researcher_file, publication_file, byline_file, taxonomy_file,
                salary_file, config) -> tuple[Corpus, LoadReport]:
    """Load and cross-link the five census files.

    Only ``config.window``, the observation window, is read from ``config``.
    Publications outside the window are skipped with a warning. Byline rows
    whose researcher_id is unknown become external authors (warning).
    """
    report = LoadReport()
    taxonomy = load_taxonomy(taxonomy_file)
    salaries = load_salary_schedule(salary_file)
    start, end = config.window

    researcher_path = Path(researcher_file)
    researchers: dict[str, Researcher] = {}
    rows = read_table(researcher_path, ("id", "sds", "rank", "institution", "years_in_window"),
                      ("name", "salary", "department"))
    for line, (rid, sds, rank, institution, years, name, salary, department) in rows:
        require(rid, researcher_path, line, "id")
        if rid in researchers:
            raise LoadError(f"duplicate researcher id {rid!r}", file=researcher_path, line=line, column="id")
        require(sds, researcher_path, line, "sds")
        if sds not in taxonomy.uda_of_sds:
            raise LoadError(f"unknown field code {sds!r}", file=researcher_path, line=line, column="sds")
        years = parse_float(years, researcher_path, line, "years_in_window")
        if years <= 0:
            raise LoadError("years_in_window must be positive", file=researcher_path, line=line,
                            column="years_in_window")
        salary = parse_float(salary, researcher_path, line, "salary") if salary else None
        if salary is not None and salary <= 0:
            raise LoadError("salary must be positive", file=researcher_path, line=line, column="salary")
        researchers[rid] = Researcher(
            id=rid,
            name=name,
            sds_code=sds,
            rank=require(rank, researcher_path, line, "rank"),
            salary_per_year=salary,
            institution_id=require(institution, researcher_path, line, "institution"),
            department_id=department or None,
            years_in_window=years,
        )
    report.row_counts["researchers"] = len(researchers)

    publication_path = Path(publication_file)
    pub_fields: dict[str, tuple[int, int, tuple[str, ...]]] = {}
    skipped_pubs: set[str] = set()
    for line, (pid, year, citations, categories) in read_table(publication_path, PUBLICATION_COLUMNS):
        require(pid, publication_path, line, "id")
        if pid in pub_fields or pid in skipped_pubs:
            raise LoadError(f"duplicate publication id {pid!r}", file=publication_path, line=line, column="id")
        year = parse_int(year, publication_path, line, "year")
        citations = parse_int(citations, publication_path, line, "citations")
        if citations < 0:
            raise LoadError("citations must be >= 0", file=publication_path, line=line, column="citations")
        categories = tuple(sorted({c.strip() for c in categories.split(";") if c.strip()}))
        if not categories:
            raise LoadError("at least one subject category is required", file=publication_path,
                            line=line, column="subject_categories")
        if not start <= year <= end:
            skipped_pubs.add(pid)
            continue
        pub_fields[pid] = (year, citations, categories)
    report.row_counts["publications"] = len(pub_fields) + len(skipped_pubs)
    if skipped_pubs:
        report.warnings.append(
            f"skipped {len(skipped_pubs)} publication(s) outside the {start}-{end} window"
        )
    if not report.row_counts["publications"]:
        report.warnings.append("publication file is empty; all scores will be zero")

    byline_path = Path(byline_file)
    bylines: dict[str, dict[int, Authorship]] = {pid: {} for pid in pub_fields}
    unresolved = 0
    n_rows = 0
    for line, (pid, position, rid, institution) in read_table(byline_path, BYLINE_COLUMNS):
        n_rows += 1
        require(pid, byline_path, line, "publication_id")
        if pid not in pub_fields:
            if pid not in skipped_pubs:
                raise LoadError(f"byline references unknown publication {pid!r}",
                                file=byline_path, line=line, column="publication_id")
            continue
        position = parse_int(position, byline_path, line, "position")
        if position < 1:
            raise LoadError("position must be >= 1", file=byline_path, line=line, column="position")
        if position in bylines[pid]:
            raise LoadError(f"duplicate position {position} for publication {pid!r}",
                            file=byline_path, line=line, column="position")
        if rid and rid not in researchers:
            unresolved += 1
            rid = ""
        bylines[pid][position] = Authorship(
            position=position,
            researcher_id=rid or None,
            institution_id=require(institution, byline_path, line, "institution_id"),
        )
    report.row_counts["bylines"] = n_rows
    if unresolved:
        report.warnings.append(f"{unresolved} byline author(s) did not resolve to a census "
                               "researcher; treated as external")

    publications: dict[str, Publication] = {}
    for pid in sorted(pub_fields):
        year, citations, categories = pub_fields[pid]
        entries = bylines[pid]
        if not entries:
            raise LoadError(f"publication {pid!r} has no byline", file=byline_path)
        positions = sorted(entries)
        if positions != list(range(1, len(positions) + 1)):
            raise LoadError(f"byline positions for publication {pid!r} are not 1..n without gaps",
                            file=byline_path, column="position")
        publications[pid] = Publication(
            id=pid, year=year, citations=citations, subject_categories=categories,
            byline=tuple(entries[p] for p in positions),
        )

    corpus = Corpus(
        researchers=researchers,
        publications=publications,
        taxonomy=taxonomy,
        salaries=salaries,
        window=(start, end),
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


# ---------------------------------------------------------------------------
# Exclusion filtering
# ---------------------------------------------------------------------------

def apply_exclusions(corpus: Corpus, min_years: float = 0.0, min_staff_uda: int = 0,
                     min_staff_total: int = 0) -> tuple[Corpus, ExclusionReport]:
    """Robustness filters applied before ranking.

    Researchers below ``min_years`` of work in the window leave the corpus
    entirely (their byline entries then behave like external authors).
    Institution groups below the staff thresholds stay in the corpus but are
    flagged ineligible: (institution, UDA) pairs under ``min_staff_uda`` for
    discipline-level rankings, institutions under ``min_staff_total`` for
    whole-institution rankings. Idempotent for fixed thresholds.
    """
    if min_years < 0 or min_staff_uda < 0 or min_staff_total < 0:
        raise InputError("exclusion thresholds must be >= 0")

    report = ExclusionReport(min_years=min_years, min_staff_uda=min_staff_uda,
                             min_staff_total=min_staff_total)

    kept: dict[str, Researcher] = {}
    for rid in sorted(corpus.researchers):
        r = corpus.researchers[rid]
        if r.years_in_window < min_years:
            report.excluded_researchers.append((rid, f"years_in_window {r.years_in_window} < {min_years}"))
        else:
            kept[rid] = r

    staff_by_inst_uda: dict[tuple[str, str], int] = {}
    staff_by_inst: dict[str, int] = {}
    for r in kept.values():
        uda = corpus.taxonomy.uda(r.sds_code)
        staff_by_inst_uda[(r.institution_id, uda)] = staff_by_inst_uda.get((r.institution_id, uda), 0) + 1
        staff_by_inst[r.institution_id] = staff_by_inst.get(r.institution_id, 0) + 1

    excluded_pairs = frozenset(
        key for key, count in staff_by_inst_uda.items() if count < min_staff_uda
    )
    excluded_insts = frozenset(
        inst for inst, count in staff_by_inst.items() if count < min_staff_total
    )
    report.excluded_institution_udas = sorted(excluded_pairs)
    report.excluded_institutions = sorted(excluded_insts)

    # replace() keeps the loaded authorship index and starts the ledger cache empty.
    filtered = replace(corpus, researchers=kept,
                       excluded_institution_udas=excluded_pairs,
                       excluded_institutions=excluded_insts)
    return filtered, report
