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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

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
    citation_cutoff: str
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

    def add_warning(self, message: str):
        self.warnings.append(message)


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

def _read_rows(path: Path, required: Iterable[str]) -> list[tuple[int, dict[str, str]]]:
    if not path.exists():
        raise LoadError("file not found", file=path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise LoadError("missing header row", file=path)
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise LoadError(f"missing column(s) {', '.join(missing)}", file=path, line=1)
        rows = []
        for row in reader:
            if None in row:
                raise LoadError("row has more fields than the header", file=path, line=reader.line_num)
            rows.append((reader.line_num, {k: (v or "").strip() for k, v in row.items() if k is not None}))
        return rows


def check_finite(value: float, path: Path, line: int, column: str) -> float:
    """Reject the nan and infinities that float() accepts, so none reaches a score."""
    if not math.isfinite(value):
        raise LoadError(f"not a finite number: {value!r}", file=path, line=line, column=column)
    return value


def parse_float(value: str, path: Path, line: int, column: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise LoadError(f"not a number: {value!r}", file=path, line=line, column=column) from None
    return check_finite(number, path, line, column)


def _parse_int(value: str, path: Path, line: int, column: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise LoadError(f"not an integer: {value!r}", file=path, line=line, column=column) from None


def _require(value: str, path: Path, line: int, column: str) -> str:
    if not value:
        raise LoadError("value is required", file=path, line=line, column=column)
    return value


def load_taxonomy(path) -> FieldTaxonomy:
    path = Path(path)
    uda_of: dict[str, str] = {}
    convention_of: dict[str, str] = {}
    for line, row in _read_rows(path, TAXONOMY_COLUMNS):
        sds = _require(row["sds"], path, line, "sds")
        if sds in uda_of:
            raise LoadError(f"duplicate field code {sds!r}", file=path, line=line, column="sds")
        convention = row["convention"]
        if convention not in CONVENTIONS:
            raise LoadError(
                f"convention must be one of {'/'.join(CONVENTIONS)}, got {convention!r}",
                file=path, line=line, column="convention",
            )
        uda_of[sds] = _require(row["uda"], path, line, "uda")
        convention_of[sds] = convention
    return FieldTaxonomy(uda_of_sds=uda_of, convention_of_sds=convention_of)


def load_salary_schedule(path) -> SalarySchedule:
    path = Path(path)
    entries: dict[tuple[str, str | None], float] = {}
    for line, row in _read_rows(path, ("rank", "salary_per_year")):
        rank = _require(row["rank"], path, line, "rank")
        band = row.get("seniority_band") or None
        if (rank, band) in entries:
            raise LoadError(f"duplicate schedule entry for rank {rank!r}", file=path, line=line, column="rank")
        salary = parse_float(row["salary_per_year"], path, line, "salary_per_year")
        if salary <= 0:
            raise LoadError("salary must be positive", file=path, line=line, column="salary_per_year")
        entries[(rank, band)] = salary
    return SalarySchedule(entries=entries)


def load_corpus(researcher_file, publication_file, byline_file, taxonomy_file,
                salary_file, config) -> tuple[Corpus, LoadReport]:
    """Load and cross-link the five census files.

    ``config`` supplies the observation window and citation cutoff date.
    Publications outside the window are skipped with a warning. Byline rows
    whose researcher_id is unknown become external authors (warning).
    """
    report = LoadReport()
    taxonomy = load_taxonomy(taxonomy_file)
    salaries = load_salary_schedule(salary_file)
    start, end = config.window

    researcher_path = Path(researcher_file)
    researchers: dict[str, Researcher] = {}
    rows = _read_rows(researcher_path, ("id", "sds", "rank", "institution", "years_in_window"))
    for line, row in rows:
        rid = _require(row["id"], researcher_path, line, "id")
        if rid in researchers:
            raise LoadError(f"duplicate researcher id {rid!r}", file=researcher_path, line=line, column="id")
        sds = _require(row["sds"], researcher_path, line, "sds")
        if sds not in taxonomy.uda_of_sds:
            raise LoadError(f"unknown field code {sds!r}", file=researcher_path, line=line, column="sds")
        years = parse_float(row["years_in_window"], researcher_path, line, "years_in_window")
        if years <= 0:
            raise LoadError("years_in_window must be positive", file=researcher_path, line=line,
                            column="years_in_window")
        salary = None
        if row.get("salary"):
            salary = parse_float(row["salary"], researcher_path, line, "salary")
            if salary <= 0:
                raise LoadError("salary must be positive", file=researcher_path, line=line, column="salary")
        researchers[rid] = Researcher(
            id=rid,
            name=row.get("name", ""),
            sds_code=sds,
            rank=_require(row["rank"], researcher_path, line, "rank"),
            salary_per_year=salary,
            institution_id=_require(row["institution"], researcher_path, line, "institution"),
            department_id=row.get("department") or None,
            years_in_window=years,
        )
    report.row_counts["researchers"] = len(rows)

    publication_path = Path(publication_file)
    pub_fields: dict[str, tuple[int, int, tuple[str, ...]]] = {}
    skipped_pubs: set[str] = set()
    rows = _read_rows(publication_path, PUBLICATION_COLUMNS)
    for line, row in rows:
        pid = _require(row["id"], publication_path, line, "id")
        if pid in pub_fields or pid in skipped_pubs:
            raise LoadError(f"duplicate publication id {pid!r}", file=publication_path, line=line, column="id")
        year = _parse_int(row["year"], publication_path, line, "year")
        citations = _parse_int(row["citations"], publication_path, line, "citations")
        if citations < 0:
            raise LoadError("citations must be >= 0", file=publication_path, line=line, column="citations")
        categories = tuple(sorted({c.strip() for c in row["subject_categories"].split(";") if c.strip()}))
        if not categories:
            raise LoadError("at least one subject category is required", file=publication_path,
                            line=line, column="subject_categories")
        if not start <= year <= end:
            skipped_pubs.add(pid)
            continue
        pub_fields[pid] = (year, citations, categories)
    report.row_counts["publications"] = len(rows)
    if skipped_pubs:
        report.add_warning(
            f"skipped {len(skipped_pubs)} publication(s) outside the {start}-{end} window"
        )
    if not rows:
        report.add_warning("publication file is empty; all scores will be zero")

    byline_path = Path(byline_file)
    bylines: dict[str, dict[int, Authorship]] = {pid: {} for pid in pub_fields}
    unresolved = 0
    rows = _read_rows(byline_path, BYLINE_COLUMNS)
    for line, row in rows:
        pid = _require(row["publication_id"], byline_path, line, "publication_id")
        if pid not in pub_fields:
            if pid not in skipped_pubs:
                raise LoadError(f"byline references unknown publication {pid!r}",
                                file=byline_path, line=line, column="publication_id")
            continue
        position = _parse_int(row["position"], byline_path, line, "position")
        if position < 1:
            raise LoadError("position must be >= 1", file=byline_path, line=line, column="position")
        if position in bylines[pid]:
            raise LoadError(f"duplicate position {position} for publication {pid!r}",
                            file=byline_path, line=line, column="position")
        rid = row.get("researcher_id") or None
        if rid is not None and rid not in researchers:
            unresolved += 1
            rid = None
        bylines[pid][position] = Authorship(
            position=position,
            researcher_id=rid,
            institution_id=_require(row["institution_id"], byline_path, line, "institution_id"),
        )
    report.row_counts["bylines"] = len(rows)
    if unresolved:
        report.add_warning(f"{unresolved} byline author(s) did not resolve to a census researcher; "
                           "treated as external")

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
        citation_cutoff=config.citation_cutoff,
    )
    if not publications:
        report.add_warning("corpus has no publications in the observation window")
    return corpus, report


# ---------------------------------------------------------------------------
# Canonical export (round-trip oracle and fixture generation)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_corpus(corpus: Corpus, directory) -> dict[str, Path]:
    """Write the five canonical CSVs; rows sorted by primary key, floats in
    shortest round-trip form. export(load(files)) is a fixpoint."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}

    def write(name, header, rows):
        path = directory / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        paths[name] = path

    write("researchers.csv", RESEARCHER_COLUMNS, [
        (r.id, r.name, r.sds_code, r.rank, _fmt(r.salary_per_year), r.institution_id,
         _fmt(r.department_id), _fmt(r.years_in_window))
        for r in (corpus.researchers[rid] for rid in sorted(corpus.researchers))
    ])
    write("publications.csv", PUBLICATION_COLUMNS, [
        (p.id, p.year, p.citations, ";".join(p.subject_categories))
        for p in (corpus.publications[pid] for pid in sorted(corpus.publications))
    ])
    write("bylines.csv", BYLINE_COLUMNS, [
        (pid, a.position, _fmt(a.researcher_id), a.institution_id)
        for pid in sorted(corpus.publications)
        for a in corpus.publications[pid].byline
    ])
    write("taxonomy.csv", TAXONOMY_COLUMNS, [
        (sds, corpus.taxonomy.uda_of_sds[sds], corpus.taxonomy.convention_of_sds[sds])
        for sds in sorted(corpus.taxonomy.uda_of_sds)
    ])
    write("salaries.csv", SALARY_COLUMNS, [
        (rank, _fmt(band), _fmt(salary))
        for (rank, band), salary in sorted(corpus.salaries.entries.items(),
                                           key=lambda kv: (kv[0][0], kv[0][1] or ""))
    ])
    return paths


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

    filtered = Corpus(
        researchers=kept,
        publications=corpus.publications,
        taxonomy=corpus.taxonomy,
        salaries=corpus.salaries,
        window=corpus.window,
        citation_cutoff=corpus.citation_cutoff,
        excluded_institution_udas=excluded_pairs,
        excluded_institutions=excluded_insts,
    )
    return filtered, report
