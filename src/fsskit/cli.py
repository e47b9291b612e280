"""Command-line entry point.

Subcommands cover the batch workflow end to end: validate input files,
score units, rank them, compare two rankings, run the efficiency frontier,
and generate synthetic test data. Exit codes: 0 on success, 1 when a
computation fails on valid input, 2 when the input itself is bad (including
unparsable or unreadable files, an output directory or artifact that cannot
be made, and bad flags, among them an empty path, which would name the working
directory), 141 (128 + SIGPIPE) when stdout is closed before the command
has printed everything, as by ``fsskit validate ... | head -1``.

Outputs are deterministic: report files carry no timestamps or absolute
paths, and the run configuration hash excludes the output directory, so
reruns of the same analysis produce byte-identical files.

A command runs with Python's cyclic garbage collector switched off, and
main restores the caller's setting when the command ends. A census command
allocates some 100k container objects (records, tuples, dicts) and builds
no reference cycles worth collecting, so the collector's repeated passes
over them would be pure cost; reference counting still frees the rest.
Each census command's parser offers only the config flags that the command
reads (``READS``), so argparse refuses any other one with exit 2 before a
file is read; ``dea --dmus`` refuses the census and config flags by name.

Each command imports only the modules it runs. This module imports what the
parser and every command need (``config``, ``corpus`` and ``errors``); each
``cmd_*`` binds the names it takes from the other modules through ``_need``
(``_LATE`` lists them). Without a bytecode cache every process compiles each
module it imports, so ``compare`` would otherwise compile DEA and the
simplex for nothing. A late name looked up on this module from outside is
bound the same way (PEP 562), and a name already set here, as by a test or a
tracer that replaces it, stays the one the commands call.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from contextlib import redirect_stdout
from importlib import import_module
from pathlib import Path

from . import __version__
from .config import OVERRIDE_KEYS, SCOPES, RunConfig, SynthParams, load_config
from .corpus import export_corpus, load_corpus, write_json, write_table
from .errors import ComputationError, InputError, LoadError

# The names cli takes from the modules that only some commands run, by
# module; a command binds them through _need before it runs.
_LATE = {
    "dea": ("dea_output_oriented", "dmus_from_corpus", "read_dmus", "scale_efficiency",
            "write_dmus", "write_results"),
    "indicators": ("STANDARDIZABLE", "apply_exclusions", "compute_field_means",
                   "credit_ledger", "department_scores", "researcher_scores",
                   "small_units", "staff_scores", "staff_unit_id", "standardized_scores",
                   "university_scores", "write_scores"),
    "normalize": ("compute_baselines", "load_baselines", "write_baselines"),
    "rankings": ("compare_rankings", "rank_scores", "read_rankings", "write_comparison",
                 "write_rankings"),
    "synth": ("generate_synthetic_corpus",),
}


def _need(*modules: str):
    """Import ``modules`` and bind on cli the names it takes from them. A name
    already bound stays: a caller that replaced it on cli keeps its own."""
    for module in modules:
        loaded = import_module(f".{module}", __package__)
        for name in _LATE[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """A late name looked up on cli from outside, bound on first use (PEP 562)."""
    for module, names in _LATE.items():
        if name in names:
            _need(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DATA_FILES = ("researchers", "publications", "bylines", "taxonomy", "salaries")
# The keys of indicators.UNIVERSITY_INDICATORS, which the parser offers
# without importing indicators.
UNIVERSITY_INDICATORS = ("fss_u", "p_u", "fp_u")


def _path(text: str) -> str:
    """The type of every path flag: ``Path("")`` would be the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file or directory")
    return text


# The settings each census command reads. Rank ranks the level that --level
# names, whatever the scope; dea builds one DMU per institution and uses no
# staff floor.
READS = {
    "validate": ("window",),
    "score": OVERRIDE_KEYS,
    "rank": tuple(key for key in OVERRIDE_KEYS if key != "scope"),
    "dea": tuple(key for key in OVERRIDE_KEYS
                 if key not in ("scope", "min_staff_uda", "min_staff_total")),
}
CONFIG_FLAGS = {
    "window": {"nargs": 2, "type": int, "metavar": ("START", "END")},
    "scope": {"choices": SCOPES},
    "baseline_file": {"metavar": "CSV", "type": _path},
    "min_years": {"type": float},
    "min_staff_uda": {"type": int},
    "min_staff_total": {"type": int},
    "output_dir": {"metavar": "DIR", "type": _path},
}


def _add_data_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--data", metavar="DIR", type=_path,
                        help="directory holding researchers.csv, publications.csv, "
                             "bylines.csv, taxonomy.csv, salaries.csv")
    for name in DATA_FILES:
        parser.add_argument(f"--{name}", metavar="CSV", type=_path,
                            help=f"path to the {name} file")


def _add_config_arguments(parser: argparse.ArgumentParser, command: str):
    parser.add_argument("--config", metavar="JSON", type=_path, help="run configuration file")
    for key, flag in CONFIG_FLAGS.items():
        if key in READS[command]:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, **flag)


def _refuse(args, names, where: str):
    """Refuse, by name, the first flag among ``names`` that was given."""
    for name in names:
        if getattr(args, name) is not None:
            raise InputError(f"--{name.replace('_', '-')} does not apply {where}")


def _data_paths(args) -> dict[str, Path]:
    paths = {}
    for name in DATA_FILES:
        explicit = getattr(args, name, None)
        if explicit:
            paths[name] = Path(explicit)
        elif args.data:
            paths[name] = Path(args.data) / f"{name}.csv"
        else:
            raise InputError(f"no path for the {name} file; pass --data or --{name}")
    return paths


def _config_from_args(args) -> tuple[RunConfig, list[str]]:
    """The run config, and the settings the command reads that were left at
    their defaults, which are printed."""
    reads = READS[args.command]
    config, defaulted = load_config(args.config, {key: getattr(args, key) for key in reads})
    defaulted = [key for key in defaulted if key in reads]
    if defaulted:
        print("defaults in effect: " + ", ".join(defaulted))
    return config, defaulted


def _sha256(path: Path) -> str | None:
    """The file's checksum, or None for a stream such as a pipe: the loader
    has read it already, and it cannot be read again."""
    if not path.is_file():
        return None
    import hashlib  # imported here: only score checksums its inputs

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_pipeline(args, config: RunConfig):
    """Load, filter, and prepare everything scoring needs, the credit ledger
    included, and the input paths. The caller has bound normalize's and
    indicators' names."""
    paths = _data_paths(args)
    corpus, report = load_corpus(*(paths[name] for name in DATA_FILES), config)
    if config.baseline_file is None:
        baselines = compute_baselines(corpus.publications.values())
        ledger = credit_ledger(corpus, baselines)
    else:  # a table computed from the census covers every cohort; a file may not
        baselines = load_baselines(config.baseline_file)
        try:
            ledger = credit_ledger(corpus, baselines)
        except ComputationError as exc:
            raise LoadError(str(exc), file=config.baseline_file) from None
    ledger, excluded = apply_exclusions(ledger, config.exclusions)
    return corpus, report, excluded, baselines, ledger, paths


def _outdir(path) -> Path:
    """The output directory at ``path``, made if it does not exist."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    config, _ = _config_from_args(args)
    paths = _data_paths(args)
    corpus, report = load_corpus(*(paths[name] for name in DATA_FILES), config)
    for name in sorted(report.row_counts):
        print(f"{name}: {report.row_counts[name]} rows")
    print(f"institutions: {len(corpus.institutions())}")
    print(f"fields: {len(corpus.taxonomy.uda_of_sds)}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print("ok")
    return 0


def _score_sets(level: str, ledger, means, indicators=UNIVERSITY_INDICATORS, uda=None):
    """One level's or scope's score sets, one per indicator for universities;
    any other level ("staff", "sds" or "country") scores staff, "country" the
    national staff. Each function is looked up on this module when called."""
    if level == "university":
        return [university_scores(ledger, means, indicator, uda) for indicator in indicators]
    if level == "researcher":
        return [researcher_scores(ledger)]
    if level == "department":
        return [department_scores(ledger, means)]
    return [staff_scores(ledger, national=level == "country")]


def cmd_score(args) -> int:
    _need("normalize", "indicators")
    config, defaulted = _config_from_args(args)
    _, report, excluded, baselines, ledger, paths = _load_pipeline(args, config)
    checksums = {f"{name}.csv": _sha256(paths[name]) for name in sorted(paths)}
    sets = [researcher_scores(ledger),
            *_score_sets(config.scope, ledger, compute_field_means(ledger))]
    pairs, institutions = small_units(ledger, config.exclusions)

    out = _outdir(config.output_dir)
    write_scores(sets, out / "scores.csv")
    if config.baseline_file is None:
        write_baselines(baselines, out / "baselines.csv")
    else:
        checksums["baseline_file"] = _sha256(Path(config.baseline_file))
    run_report = {
        "tool": {"name": "fsskit", "version": __version__},
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "defaults_in_effect": defaulted,
        "inputs": checksums,
        "row_counts": report.row_counts,
        "warnings": report.warnings,
        "exclusions": {
            "researchers_excluded": len(excluded),
            "institution_uda_pairs_excluded": len(pairs),
            "institutions_excluded": len(institutions),
        },
        "score_sets": [
            {"level": s.level, "indicator": s.indicator, "n_units": len(s.entries)}
            for s in sets
        ],
    }
    write_json(out / "report.json", run_report)
    for s in sets:
        print(f"{s.level}/{s.indicator}: {len(s.entries)} units")
    print(f"wrote {out / 'scores.csv'}")
    return 0


def _ineligible(ledger, thresholds, level: str, uda: str | None):
    """Units too small to rank fairly, per the configured staff thresholds."""
    if level not in ("university", "staff"):
        return set()
    pairs, institutions = map(set, small_units(ledger, thresholds))
    if level == "university":
        return institutions | {inst for inst, u in pairs if u == uda}
    return {staff_unit_id(r.institution_id, r.sds_code) for r in ledger
            if r.institution_id in institutions or (r.institution_id, r.uda_code) in pairs}


def cmd_rank(args) -> int:
    _need("normalize", "indicators", "rankings")
    level = args.level
    if level != "university":
        _refuse(args, ("uda", "indicator"), f"to {level} rankings")
    if level not in STANDARDIZABLE and args.standardize:
        raise InputError(f"--standardize only applies to {' and '.join(STANDARDIZABLE)} rankings")
    config, _ = _config_from_args(args)
    corpus, _, _, _, ledger, _ = _load_pipeline(args, config)
    if args.uda is not None:
        known = sorted(set(corpus.taxonomy.uda_of_sds.values()))
        if args.uda not in known:
            raise InputError(f"unknown discipline {args.uda!r}; the taxonomy has "
                             f"{', '.join(known)}")
    means = compute_field_means(ledger)
    if args.standardize:
        scores = standardized_scores(ledger, means, level)
    else:
        scores, = _score_sets(level, ledger, means, (args.indicator or "fss_u",), args.uda)

    ranked = rank_scores(scores.entries, args.uda,
                         exclude=_ineligible(ledger, config.exclusions, level, args.uda))
    if not ranked.entries:
        raise ComputationError("no units left to rank after exclusions")

    out = _outdir(config.output_dir)
    write_rankings(ranked, out / "rankings.csv")
    bands = {b: 0 for b in range(0, 100, 10)}
    for e in ranked.entries:
        bands[min(90, int(e.percentile // 10) * 10)] += 1
    write_table(out / "percentile_distribution.csv", ("band_start", "band_end", "count"),
                ((b, b + 10, bands[b]) for b in sorted(bands)))
    print(f"ranked {len(ranked.entries)} {level} units by {scores.indicator}")
    print(f"wrote {out / 'rankings.csv'}")
    return 0


def cmd_compare(args) -> int:
    _need("rankings")
    ranked_a = read_rankings(args.a)
    ranked_b = read_rankings(args.b)
    stats = compare_rankings(ranked_a, ranked_b)
    out = _outdir(args.out or ".")
    write_comparison(stats, out / "comparison.json")
    histogram: dict[int, int] = {}
    for shift in stats.shifts.values():
        histogram[shift] = histogram.get(shift, 0) + 1
    write_table(out / "shift_histogram.csv", ("shift", "count"),
                ((shift, histogram[shift]) for shift in sorted(histogram)))
    print(f"compared {stats.n_units} units: {stats.pct_shifting:.1f}% shift, "
          f"max shift {stats.max_shift}, rank correlation {stats.spearman:.3f}")
    print(f"wrote {out / 'comparison.json'}")
    return 0


def cmd_dea(args) -> int:
    _need("dea")
    if args.dmus:
        _refuse(args, ("data", *DATA_FILES, "config",
                       *(key for key in READS["dea"] if key != "output_dir")), "with --dmus")
        dmus = read_dmus(args.dmus)
        out = _outdir(args.output_dir or ".")
    else:
        _need("normalize", "indicators")
        config, _ = _config_from_args(args)
        corpus, _, _, _, ledger, _ = _load_pipeline(args, config)
        dmus, ranks, skipped = dmus_from_corpus(corpus, ledger)
        for warning in skipped:
            print(f"warning: {warning}")
        if not dmus:
            raise ComputationError("no institutions with research output left after exclusions")
        out = _outdir(config.output_dir)
        write_dmus(dmus, out / "dmus.csv",
                   input_names=[f"cost_{rank}" for rank in ranks],
                   output_names=["impact", "count"])

    models = ("crs", "vrs") if args.model == "both" else (args.model,)
    all_scores = []
    by_model = {}
    for model in models:
        scores = dea_output_oriented(dmus, model)
        by_model[model] = scores
        all_scores.extend(scores)
        frontier = sum(1 for s in scores if s.on_frontier)
        print(f"{model}: {frontier}/{len(scores)} units on the frontier")
    write_results(all_scores, out / "dea_results.csv")
    if args.model == "both":
        se = scale_efficiency(by_model["crs"], by_model["vrs"])
        write_table(out / "scale_efficiency.csv", ("id", "scale_efficiency"),
                    ((uid, se[uid]) for uid in sorted(se)))
    print(f"wrote {out / 'dea_results.csv'}")
    return 0


def cmd_synth(args) -> int:
    _need("synth")
    params = SynthParams(**{name: getattr(args, name) for name in SynthParams._fields})
    corpus = generate_synthetic_corpus(args.seed, params)
    out = _outdir(args.out)
    export_corpus(corpus, out)
    print(f"generated {len(corpus.researchers)} researchers, "
          f"{len(corpus.publications)} publications")
    print(f"wrote {out}/researchers.csv and companions")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsskit",
        description="Cost-normalized research productivity scoring, ranking, "
                    "and efficiency analysis.",
    )
    parser.add_argument("--version", action="version", version=f"fsskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check input files and report row counts")
    _add_data_arguments(p)
    _add_config_arguments(p, "validate")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="compute productivity scores")
    _add_data_arguments(p)
    _add_config_arguments(p, "score")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rank", help="rank units of one level")
    _add_data_arguments(p)
    _add_config_arguments(p, "rank")
    p.add_argument("--level", required=True,
                   choices=("researcher", "staff", "department", "university"))
    p.add_argument("--indicator", choices=UNIVERSITY_INDICATORS,
                   help="university-level indicator (default fss_u)")
    p.add_argument("--uda", help="restrict a university ranking to one discipline")
    p.add_argument("--standardize", action="store_true",
                   help="divide researcher/staff scores by their field mean first")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("compare", help="compare two rankings of the same units")
    p.add_argument("--a", required=True, metavar="CSV", type=_path, help="first ranking")
    p.add_argument("--b", required=True, metavar="CSV", type=_path, help="second ranking")
    p.add_argument("--out", metavar="DIR", type=_path, help="output directory (default .)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dea", help="output-oriented efficiency frontier")
    _add_data_arguments(p)
    _add_config_arguments(p, "dea")
    p.add_argument("--dmus", metavar="CSV", type=_path,
                   help="score a prepared DMU table instead of corpus files")
    p.add_argument("--model", choices=("crs", "vrs", "both"), default="both")
    p.set_defaults(func=cmd_dea)

    p = sub.add_parser("synth", help="generate a synthetic census")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR", type=_path)
    # One dest per SynthParams field, defaulting to that field's default.
    p.add_argument("--researchers", dest="n_researchers", metavar="RESEARCHERS", type=int)
    p.add_argument("--institutions", dest="n_institutions", metavar="INSTITUTIONS", type=int)
    p.add_argument("--sds", dest="n_sds", metavar="SDS", type=int)
    p.add_argument("--max-papers", dest="max_papers", type=int)
    p.set_defaults(func=cmd_synth, **SynthParams()._asdict())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with redirect_stdout(io.StringIO()) as printed:  # argparse ignores failed writes
                args = parser.parse_args(argv)
        except SystemExit:
            sys.stdout.write(printed.getvalue())  # --help and --version print, then exit here
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Whatever is still buffered would fail again at exit (status 120).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
