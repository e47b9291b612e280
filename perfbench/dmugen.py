"""Seeded DMU tables with the shape of the corpus bridge.

Each unit has three inputs (labor cost of assistant, associate and full
staff over a five-year window, in thousands of euros) and two outputs
(fractional normalized impact and fractional publication count), as
`fsskit dea` builds them from a census. Costs are in thousands because the
package's simplex returns wrong expansion factors on some programs whose
inputs are in euros (about 1e6 per unit, against outputs near 1e1); see
README.md. Outputs rise with inputs along a concave frontier; every unit
falls short of it by its own inefficiency draw (all draws stratified), so
a table has a few frontier units and many interior ones.

    python3 perfbench/dmugen.py --seed 7 --dmus 200 --tables 3 --out inputs/

writes inputs/dmus1.csv .. inputs/dmus3.csv. Table k is drawn from the numpy
stream seeded with (seed, k), so one seed always gives the same tables.
"""

from __future__ import annotations

import argparse
import csv
from statistics import NormalDist
from pathlib import Path

import numpy as np

RANKS = ("assistant", "associate", "full")
RANK_WEIGHTS = (4.0, 3.0, 2.0)
COST_PER_HEAD = np.array([35.0, 50.0, 70.0]) * 5  # k EUR per head over five years
NORMAL = NormalDist()
COLUMNS = (["id"] + [f"input_cost_{rank}" for rank in RANKS]
           + ["output_impact", "output_count"])


def generate_dmus(seed: int, table: int, n: int) -> list[list]:
    """Rows of COLUMNS, one per unit."""
    rng = np.random.default_rng([seed, table])

    def stratified() -> np.ndarray:
        """One uniform point inside each of n equal strata of (0, 1), in seeded order."""
        return (rng.permutation(n) + rng.uniform(0.001, 0.999, size=n)) / n

    # Head counts are lognormal(3.0, 0.8) and the inefficiencies exponential
    # (scale 0.3 and 0.2), drawn through their inverse distribution functions
    # from stratified points: each table then has the same spread of sizes
    # and of distances to the frontier, so the simplex's work varies less
    # from one seed to the next.
    heads = np.exp(3.0 + 0.8 * np.array([NORMAL.inv_cdf(u) for u in stratified()]))
    shares = rng.dirichlet(RANK_WEIGHTS, size=n)
    inputs = heads[:, None] * shares * COST_PER_HEAD
    cost = inputs.sum(axis=1)
    impact = 0.014 * cost ** 0.95 * np.exp(0.3 * np.log1p(-stratified()))
    count = 1.5 * heads ** 0.9 * np.exp(0.2 * np.log1p(-stratified()))
    return [
        [f"D{i + 1:05d}"] + [float(v) for v in inputs[i]] + [float(impact[i]), float(count[i])]
        for i in range(n)
    ]


def table_path(directory: Path, table: int) -> Path:
    return Path(directory) / f"dmus{table}.csv"


def write_tables(seed: int, n: int, tables: int, directory: Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in range(1, tables + 1):
        path = table_path(directory, table)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            writer.writerows([row[0]] + [repr(v) for v in row[1:]]
                             for row in generate_dmus(seed, table, n))
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write seeded DMU tables")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dmus", type=int, required=True, help="units per table")
    parser.add_argument("--tables", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    args = parser.parse_args(argv)
    write_tables(args.seed, args.dmus, args.tables, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
