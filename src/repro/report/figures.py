"""Builders for the paper's figure data (Venn regions, program grid).

The Venn builders emit the *data* behind Figures 2/3 — unique-violation
counts per exact optimization-level combination — rather than a drawing:
that is the form the paper's counts are checked in, and any plotting
front end can consume the CSV rendering.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..pipeline.campaign import CampaignResult
from .renderers import render
from .table import Table

#: Level left out of the paper's Venn diagrams.
DEFAULT_VENN_EXCLUDE = ("Oz",)


def venn_regions(campaign: CampaignResult,
                 exclude: Sequence[str] = DEFAULT_VENN_EXCLUDE,
                 conjecture: Optional[str] = None
                 ) -> List[tuple]:
    """``("+".join(levels), count)`` pairs, largest region first.

    The sort (count descending, then level combination) is the one row
    order every renderer and :func:`format_venn_text` share.
    """
    regions = campaign.venn(exclude=exclude, conjecture=conjecture)
    return [("+".join(sorted(levels)), count)
            for levels, count in sorted(
                regions.items(),
                key=lambda item: (-item[1], sorted(item[0])))]


def venn_table(campaign: CampaignResult,
               exclude: Sequence[str] = DEFAULT_VENN_EXCLUDE,
               conjecture: Optional[str] = None) -> Table:
    """Figure 2/3 region counts as a table."""
    title = (f"Venn regions — {campaign.family}-{campaign.version}"
             + (f", {conjecture}" if conjecture else ""))
    note = "Unique violations per exact optimization-level combination"
    if exclude:
        note += f" (excluding {', '.join(exclude)})"
    note += "."
    return Table(
        title=title,
        columns=["levels", "count"],
        rows=[list(pair)
              for pair in venn_regions(campaign, exclude, conjecture)],
        note=note,
        kind="venn",
        text_widths=(20, 5),
        text_header=False,
        empty_text="(no unique violations)",
    )


def format_venn_text(campaign: CampaignResult,
                     exclude: Sequence[str] = DEFAULT_VENN_EXCLUDE) -> str:
    """The legacy fixed-width Venn text, byte for byte."""
    return render(venn_table(campaign, exclude=exclude), "text")


def fig4_table(campaign: CampaignResult) -> Table:
    """Figure 4's grid rows: violated-conjecture count per program."""
    rows = [[result.seed, len(result.conjectures_violated())]
            for result in campaign.programs]
    return Table(
        title=(f"Figure 4 — conjectures violated per program "
               f"({campaign.family}-{campaign.version})"),
        columns=["seed", "conjectures violated"],
        rows=rows,
        note="One row per pool program, in seed order.",
        kind="fig4",
    )
