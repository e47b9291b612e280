"""Command-line entry point.

Subcommands cover the batch workflow end to end: validate input files,
score units, rank them, compare two rankings, run the efficiency frontier,
and generate synthetic test data. Exit codes: 0 on success, 1 when a
computation fails on valid input, 2 when the input itself is bad (including
unparsable files and bad flags).

Outputs are deterministic: report files carry no timestamps or absolute
paths, and the run configuration hash excludes the output directory, so
reruns of the same analysis produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .config import OVERRIDE_KEYS, RunConfig, load_config
from .corpus import apply_exclusions, export_corpus, load_corpus, write_table
from .dea import (corpus_input_ranks, dea_output_oriented, dmus_from_corpus, read_dmus,
                  scale_efficiency, write_dmus, write_results)
from .errors import ComputationError, InputError
from .indicators import (compute_field_means, country_staff_scores, department_scores,
                         researcher_scores, split_staff_unit_id, staff_scores, university_scores,
                         write_scores)
from .normalize import compute_baselines, load_baselines, write_baselines
from .rankings import (compare_rankings, rank_scores, read_rankings, standardized_scores,
                       write_comparison, write_rankings)
from .synth import SynthParams, generate_synthetic_corpus

DATA_FILES = ("researchers", "publications", "bylines", "taxonomy", "salaries")


def _add_data_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--data", metavar="DIR",
                        help="directory holding researchers.csv, publications.csv, "
                             "bylines.csv, taxonomy.csv, salaries.csv")
    for name in DATA_FILES:
        parser.add_argument(f"--{name}", metavar="CSV", help=f"path to the {name} file")


def _add_config_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="JSON", help="run configuration file")
    parser.add_argument("--window", nargs=2, type=int, metavar=("START", "END"))
    parser.add_argument("--scope", choices=("sds", "department", "university", "country"))
    parser.add_argument("--baseline-source", dest="baseline_source", choices=("computed", "file"))
    parser.add_argument("--baseline-file", dest="baseline_file", metavar="CSV")
    parser.add_argument("--min-years", dest="min_years", type=float)
    parser.add_argument("--min-staff-uda", dest="min_staff_uda", type=int)
    parser.add_argument("--min-staff-total", dest="min_staff_total", type=int)
    parser.add_argument("--output-dir", dest="output_dir", metavar="DIR")


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
    overrides = {key: getattr(args, key, None) for key in OVERRIDE_KEYS}
    config, defaulted = load_config(getattr(args, "config", None), overrides)
    if defaulted:
        print("defaults in effect: " + ", ".join(defaulted))
    return config, defaulted


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_pipeline(args, config: RunConfig):
    """Load, filter, and prepare everything scoring needs."""
    paths = _data_paths(args)
    corpus, report = load_corpus(paths["researchers"], paths["publications"],
                                 paths["bylines"], paths["taxonomy"],
                                 paths["salaries"], config)
    corpus, exclusions = apply_exclusions(
        corpus,
        min_years=config.exclusions.min_years,
        min_staff_uda=config.exclusions.min_staff_uda,
        min_staff_total=config.exclusions.min_staff_total,
    )
    if config.baseline_source == "file":
        baselines = load_baselines(config.baseline_file)
    else:
        baselines = compute_baselines(corpus.publications)
    checksums = {paths[name].name: _sha256(paths[name]) for name in sorted(paths)}
    return corpus, report, exclusions, baselines, checksums


def _outdir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    config, _ = _config_from_args(args)
    paths = _data_paths(args)
    corpus, report = load_corpus(paths["researchers"], paths["publications"],
                                 paths["bylines"], paths["taxonomy"],
                                 paths["salaries"], config)
    for name in sorted(report.row_counts):
        print(f"{name}: {report.row_counts[name]} rows")
    print(f"institutions: {len(corpus.institutions())}")
    print(f"fields: {len(corpus.taxonomy.uda_of_sds)}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print("ok")
    return 0


def _score_sets(corpus, baselines, config):
    """Researcher scores always; aggregate sets per the configured scope."""
    sets = [researcher_scores(corpus, baselines)]
    means = compute_field_means(corpus, baselines)
    if config.scope == "sds":
        sets.append(staff_scores(corpus, baselines))
    elif config.scope == "department":
        sets.append(department_scores(corpus, baselines, means))
    elif config.scope == "university":
        for indicator in ("fss_u", "p_u", "fp_u"):
            sets.append(university_scores(corpus, baselines, means, indicator))
    elif config.scope == "country":
        sets.append(country_staff_scores(corpus, baselines))
    return sets


def cmd_score(args) -> int:
    config, defaulted = _config_from_args(args)
    corpus, report, exclusions, baselines, checksums = _load_pipeline(args, config)
    sets = _score_sets(corpus, baselines, config)

    out = _outdir(config)
    write_scores(sets, out / "scores.csv")
    if config.baseline_source == "computed":
        write_baselines(baselines, out / "baselines.csv")
    run_report = {
        "tool": {"name": "fsskit", "version": __version__},
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "defaults_in_effect": defaulted,
        "inputs": checksums,
        "row_counts": report.row_counts,
        "warnings": report.warnings,
        "exclusions": {
            "researchers_excluded": len(exclusions.excluded_researchers),
            "institution_uda_pairs_excluded": len(exclusions.excluded_institution_udas),
            "institutions_excluded": len(exclusions.excluded_institutions),
        },
        "score_sets": [
            {"level": s.level, "indicator": s.indicator, "n_units": len(s.entries)}
            for s in sets
        ],
    }
    (out / "report.json").write_text(
        json.dumps(run_report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for s in sets:
        print(f"{s.level}/{s.indicator}: {len(s.entries)} units")
    print(f"wrote {out / 'scores.csv'}")
    return 0


def _eligible(corpus, scores, level: str, uda: str | None):
    """Units too small to rank fairly, per the configured staff thresholds."""
    exclude = set()
    if level == "university":
        exclude |= set(corpus.excluded_institutions)
        if uda is not None:
            exclude |= {inst for inst, u in corpus.excluded_institution_udas if u == uda}
    elif level == "staff":
        for uid in scores.unit_ids():
            inst, sds = split_staff_unit_id(uid)
            if inst in corpus.excluded_institutions:
                exclude.add(uid)
            elif (inst, corpus.taxonomy.uda(sds)) in corpus.excluded_institution_udas:
                exclude.add(uid)
    return exclude


def cmd_rank(args) -> int:
    level = args.level
    indicator = args.indicator
    if level != "university" and args.uda:
        raise InputError("--uda only applies to university-level rankings")
    if level != "university" and indicator:
        raise InputError("--indicator only applies to university-level rankings")
    if level not in ("researcher", "staff") and args.standardize:
        raise InputError("--standardize only applies to researcher and staff rankings")
    config, _ = _config_from_args(args)
    corpus, _, _, baselines, _ = _load_pipeline(args, config)
    means = compute_field_means(corpus, baselines)
    if level == "researcher":
        scores = researcher_scores(corpus, baselines)
    elif level == "staff":
        scores = staff_scores(corpus, baselines)
    elif level == "department":
        scores = department_scores(corpus, baselines, means)
    elif level == "university":
        scores = university_scores(corpus, baselines, means, indicator or "fss_u", args.uda)
    if args.standardize:
        scores = standardized_scores(scores, means)

    ranked = rank_scores(scores, exclude=_eligible(corpus, scores, level, args.uda))
    if not ranked.entries:
        raise ComputationError("no units left to rank after exclusions")

    out = _outdir(config)
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
    ranked_a = read_rankings(args.a)
    ranked_b = read_rankings(args.b)
    stats = compare_rankings(ranked_a, ranked_b)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
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
    if args.dmus:
        dmus = read_dmus(args.dmus)
        out = Path(args.output_dir or ".")
    else:
        config, _ = _config_from_args(args)
        corpus, _, _, baselines, _ = _load_pipeline(args, config)
        dmus, skipped = dmus_from_corpus(corpus, baselines)
        for warning in skipped:
            print(f"warning: {warning}")
        out = _outdir(config)
        write_dmus(dmus, out / "dmus.csv",
                   input_names=[f"cost_{r}" for r in corpus_input_ranks(corpus)],
                   output_names=["impact", "count"])
    out.mkdir(parents=True, exist_ok=True)

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
    params = SynthParams(
        n_researchers=args.researchers,
        n_institutions=args.institutions,
        n_sds=args.sds,
        lotka_alpha=args.alpha,
        max_papers=args.max_papers,
        single_category=args.single_category,
    )
    corpus = generate_synthetic_corpus(args.seed, params)
    out = Path(args.out)
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
    _add_config_arguments(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="compute productivity scores")
    _add_data_arguments(p)
    _add_config_arguments(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rank", help="rank units of one level")
    _add_data_arguments(p)
    _add_config_arguments(p)
    p.add_argument("--level", required=True,
                   choices=("researcher", "staff", "department", "university"))
    p.add_argument("--indicator", choices=("fss_u", "p_u", "fp_u"),
                   help="university-level indicator (default fss_u)")
    p.add_argument("--uda", help="restrict a university ranking to one discipline")
    p.add_argument("--standardize", action="store_true",
                   help="divide researcher/staff scores by their field mean first")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("compare", help="compare two rankings of the same units")
    p.add_argument("--a", required=True, metavar="CSV", help="first ranking")
    p.add_argument("--b", required=True, metavar="CSV", help="second ranking")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dea", help="output-oriented efficiency frontier")
    _add_data_arguments(p)
    _add_config_arguments(p)
    p.add_argument("--dmus", metavar="CSV",
                   help="score a prepared DMU table instead of corpus files")
    p.add_argument("--model", choices=("crs", "vrs", "both"), default="both")
    p.set_defaults(func=cmd_dea)

    p = sub.add_parser("synth", help="generate a synthetic census")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--researchers", type=int, default=500)
    p.add_argument("--institutions", type=int, default=8)
    p.add_argument("--sds", type=int, default=5)
    p.add_argument("--alpha", type=float, default=1.3)
    p.add_argument("--max-papers", dest="max_papers", type=int, default=40)
    p.add_argument("--single-category", dest="single_category", action="store_true")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
