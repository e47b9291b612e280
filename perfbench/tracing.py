"""Per-layer tracing of fsskit from outside the package.

A Tracer replaces public functions of the fsskit modules with timing
wrappers for the length of a `with tracer.installed():` block and restores
them afterwards; nothing under src/ changes. A name imported into another
module is wrapped where the caller looks it up (``fsskit.cli.load_corpus``,
``fsskit.indicators.normalized_impact``, ``fsskit.dea.solve_lp`` and so on),
so every call the CLI makes goes through a wrapper.

Each call is a span (name, start, end, parent). Its self time is its
duration minus the time of the wrapped calls it made. Spans are kept in
memory, except for the per-publication functions (HOT), which run hundreds
of thousands of times per command: those only add to their call count and
self time. Everything runs on one thread, as the CLI does with the default
worker count, so a stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter

from fsskit import cli, credit, dea, indicators
from fsskit.corpus import Corpus

# (owner, attribute, span name). The owner is where the caller looks it up.
WRAPPED = (
    (cli, "cmd_score", "cli.cmd_score"),
    (cli, "cmd_rank", "cli.cmd_rank"),
    (cli, "cmd_compare", "cli.cmd_compare"),
    (cli, "cmd_dea", "cli.cmd_dea"),
    (cli, "cmd_synth", "cli.cmd_synth"),
    (cli, "_sha256", "cli._sha256"),
    (cli, "load_corpus", "corpus.load_corpus"),
    (cli, "apply_exclusions", "corpus.apply_exclusions"),
    (cli, "export_corpus", "corpus.export_corpus"),
    (Corpus, "staff", "corpus.Corpus.staff"),
    (Corpus, "publications_of", "corpus.Corpus.publications_of"),
    (cli, "compute_baselines", "normalize.compute_baselines"),
    (indicators, "normalized_impact", "normalize.normalized_impact"),
    (dea, "normalized_impact", "normalize.normalized_impact"),
    (indicators, "fractional_contribution", "credit.fractional_contribution"),
    (dea, "fractional_contribution", "credit.fractional_contribution"),
    (credit, "byline_weights", "credit.byline_weights"),
    (cli, "researcher_scores", "indicators.researcher_scores"),
    (cli, "compute_field_means", "indicators.compute_field_means"),
    (cli, "staff_scores", "indicators.staff_scores"),
    (cli, "university_scores", "indicators.university_scores"),
    (cli, "write_scores", "indicators.write_scores"),
    (cli, "rank_scores", "rankings.rank_scores"),
    (cli, "standardized_scores", "rankings.standardized_scores"),
    (cli, "compare_rankings", "rankings.compare_rankings"),
    (cli, "write_rankings", "rankings.write_rankings"),
    (cli, "write_comparison", "rankings.write_comparison"),
    (cli, "read_dmus", "dea.read_dmus"),
    (cli, "dea_output_oriented", "dea.dea_output_oriented"),
    (dea, "solve_lp", "simplex.solve_lp"),
    (cli, "generate_synthetic_corpus", "synth.generate_synthetic_corpus"),
)

HOT = frozenset({"corpus.Corpus.publications_of", "normalize.normalized_impact",
                 "credit.fractional_contribution", "credit.byline_weights"})

# Per-layer metric -> the spans whose self time it sums.
SELF_TIME = {
    "cli.score_s": ("cli.cmd_score",),
    "cli.rank_s": ("cli.cmd_rank",),
    "cli.compare_s": ("cli.cmd_compare",),
    "cli.dea_s": ("cli.cmd_dea",),
    "cli.checksum_s": ("cli._sha256",),
    "corpus.load_s": ("corpus.load_corpus",),
    "corpus.exclusions_s": ("corpus.apply_exclusions",),
    "corpus.staff_s": ("corpus.Corpus.staff",),
    "corpus.export_s": ("corpus.export_corpus",),
    "normalize.baselines_s": ("normalize.compute_baselines",),
    "normalize.impact_s": ("normalize.normalized_impact",),
    "credit.weights_s": ("credit.fractional_contribution", "credit.byline_weights"),
    "indicators.researcher_s": ("indicators.researcher_scores",),
    "indicators.field_means_s": ("indicators.compute_field_means",),
    "indicators.staff_s": ("indicators.staff_scores",),
    "indicators.university_s": ("indicators.university_scores",),
    "indicators.write_s": ("indicators.write_scores",),
    "rankings.rank_s": ("rankings.rank_scores",),
    "rankings.standardize_s": ("rankings.standardized_scores",),
    "rankings.compare_s": ("rankings.compare_rankings",),
    "rankings.write_s": ("rankings.write_rankings", "rankings.write_comparison"),
    "dea.read_s": ("dea.read_dmus",),
    "dea.build_s": ("dea.dea_output_oriented",),
    "simplex.solve_s": ("simplex.solve_lp",),
    "synth.generate_s": ("synth.generate_synthetic_corpus",),
}

# Per-layer metric -> the span whose call count it is.
CALLS = {
    "corpus.staff_calls": "corpus.Corpus.staff",
    "corpus.publications_of_calls": "corpus.Corpus.publications_of",
    "normalize.impact_calls": "normalize.normalized_impact",
    "credit.weights_calls": "credit.byline_weights",
    "simplex.lps": "simplex.solve_lp",
}


class Tracer:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rows_loaded = 0
        self.byline_rows = 0
        self.pivots = 0
        self._stack: list[list] = []  # [span index or -1, seconds in wrapped callees]

    def _wrap(self, fn, name: str):
        keep = name not in HOT
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [-1, 0.0]
            if keep:
                frame[0] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[name] += (end - start) - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += end - start
                if keep:
                    self.spans[frame[0]] = (name, start, end,
                                            parent[0] if parent is not None else -1)
            if name == "corpus.load_corpus":
                counts = result[1].row_counts
                self.rows_loaded += counts["researchers"] + counts["publications"] + counts["bylines"]
                self.byline_rows += counts["bylines"]
            elif name == "simplex.solve_lp":
                self.pivots += result.iterations
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
        try:
            for (owner, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        out = {metric: sum(self.self_s[name] for name in names)
               for metric, names in SELF_TIME.items()}
        out.update({metric: self.calls[name] for metric, name in CALLS.items()})
        out["corpus.rows_loaded"] = self.rows_loaded
        per_byline = 1.0 / self.byline_rows if self.byline_rows else 0.0
        out["normalize.impact_per_byline"] = out["normalize.impact_calls"] * per_byline
        out["credit.weights_per_byline"] = out["credit.weights_calls"] * per_byline
        out["simplex.pivots"] = self.pivots
        out["simplex.pivots_per_lp"] = self.pivots / out["simplex.lps"] if out["simplex.lps"] else 0.0
        return out

    def span_records(self, origin: float) -> list[list]:
        """Spans as [name, start, end, parent index], times in seconds from origin."""
        return [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
