"""Fractional author credit for a publication byline.

Two conventions are supported, selected per field through the taxonomy:

* ``alphabetical``: byline order carries no meaning; every author gets 1/n.
* ``position_weighted``: byline order signals contribution. When the first
  and last author share an institution (intramural collaboration) they take
  0.40 each and the middle authors split the remaining 0.20. When they
  belong to different institutions (extramural), first and last take 0.30,
  the second and second-to-last take 0.15, and the remaining authors split
  the leftover 0.10.

Short bylines where the named roles overlap (n <= 4 extramural, n <= 2
intramural) accumulate role weights per position and renormalize the vector
to sum to one, which keeps the completeness invariant for every n >= 1.
The weights follow standard life-sciences practice.
"""

from __future__ import annotations

from typing import Sequence

ALPHABETICAL = "alphabetical"
POSITION_WEIGHTED = "position_weighted"
CONVENTIONS = (ALPHABETICAL, POSITION_WEIGHTED)


# Position weights of the life-sciences convention.
INTRAMURAL_FIRST = 0.40
INTRAMURAL_LAST = 0.40
EXTRAMURAL_FIRST = 0.30
EXTRAMURAL_LAST = 0.30
EXTRAMURAL_SECOND = 0.15
EXTRAMURAL_SECOND_LAST = 0.15


def byline_weights(byline: Sequence, convention: str) -> list[float]:
    """Credit vector for a whole byline, one weight per position, summing to 1.

    ``byline`` is an ordered sequence of authorship records; only
    ``institution_id`` of the first and last entries is consulted (it decides
    the intramural/extramural branch for position-weighted fields).
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown co-authorship convention: {convention!r}")
    n = len(byline)
    if n == 0:
        raise ValueError("byline is empty")
    if n == 1:
        return [1.0]
    if convention == ALPHABETICAL:
        return [1.0 / n] * n

    weights = [0.0] * n
    if byline[0].institution_id == byline[-1].institution_id:
        weights[0] += INTRAMURAL_FIRST
        weights[n - 1] += INTRAMURAL_LAST
        assigned = {0, n - 1}
        remainder = 1.0 - INTRAMURAL_FIRST - INTRAMURAL_LAST
    else:
        weights[0] += EXTRAMURAL_FIRST
        weights[n - 1] += EXTRAMURAL_LAST
        weights[1] += EXTRAMURAL_SECOND
        weights[n - 2] += EXTRAMURAL_SECOND_LAST
        assigned = {0, 1, n - 2, n - 1}
        remainder = 1.0 - (EXTRAMURAL_FIRST + EXTRAMURAL_LAST
                           + EXTRAMURAL_SECOND + EXTRAMURAL_SECOND_LAST)

    rest = [i for i in range(n) if i not in assigned]
    if rest:
        share = remainder / len(rest)
        for i in rest:
            weights[i] = share
    else:
        # Roles collapsed onto each other; rescale so the vector sums to 1.
        total = sum(weights)
        weights = [w / total for w in weights]
    return weights


def fractional_contribution(byline: Sequence, author_position: int, convention: str) -> float:
    """Credit share of the author at ``author_position`` (1-based) in ``byline``."""
    n = len(byline)
    if not 1 <= author_position <= n:
        raise ValueError(f"author position {author_position} out of range 1..{n}")
    return byline_weights(byline, convention)[author_position - 1]
