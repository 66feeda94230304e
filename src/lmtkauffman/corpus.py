"""A fixed family of reference diagrams.

Every braid-backed entry is generated once at import from its word, so
the stored text always matches what braid_closure produces; the split
union of a trefoil and a circle is one, its idle third strand the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import braid_closure
from .diagram import Diagram, parse_pd, to_pd_text


@dataclass(frozen=True)
class CorpusEntry:
    """A named diagram text with a note on what it shows."""

    name: str
    pd_text: str
    notes: str

    def diagram(self) -> Diagram:
        return parse_pd(self.pd_text)


def _braid_entry(name: str, word: list[int], strands: int, notes: str) -> CorpusEntry:
    return CorpusEntry(name, to_pd_text(braid_closure(word, strands)), notes)


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("unknot", "loops 1\n", "zero-crossing circle"),
    CorpusEntry("unknot_kink_pos", "Xr 1 1 2 2\n", "circle with one positive curl"),
    CorpusEntry("unknot_kink_neg", "Xl 1 2 2 1\n", "circle with one negative curl"),
    CorpusEntry("unlink2", "loops 2\n", "two split circles"),
    CorpusEntry("unlink3", "loops 3\n", "three split circles"),
    _braid_entry("hopf_pos", [-1, -1], 2, "clasp with linking number +1"),
    _braid_entry("hopf_neg", [1, 1], 2, "clasp with linking number -1"),
    _braid_entry("trefoil_right", [-1, -1, -1], 2, "total sign +3"),
    _braid_entry("trefoil_left", [1, 1, 1], 2, "total sign -3"),
    _braid_entry("figure_eight", [1, -2, 1, -2], 3, "four alternating crossings"),
    _braid_entry("torus_2_4", [-1, -1, -1, -1], 2, "clasp with linking number +2"),
    _braid_entry("torus_2_6", [-1, -1, -1, -1, -1, -1], 2, "clasp with linking number +3"),
    _braid_entry("whitehead", [1, -2, 1, -2, 1], 3, "five crossings, linking number 0"),
    _braid_entry("borromean", [1, -2, 1, -2, 1, -2], 3, "pairwise linking numbers 0"),
    _braid_entry("granny_sum", [1, 1, 1, 2, 2, 2], 3, "two like-handed trefoils spliced"),
    _braid_entry(
        "union_trefoil_unknot", [1, 1, 1], 3, "split union of a trefoil and a circle"
    ),
)


def get(name: str) -> CorpusEntry:
    for e in CORPUS:
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry named {name!r}")
