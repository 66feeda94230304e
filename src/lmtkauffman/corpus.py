"""A fixed family of reference diagrams.

Braid-backed entries are generated once at import from their words, so
the stored text always matches what braid_closure produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import braid_closure
from .diagram import Diagram, parse_pd, to_pd_text


@dataclass(frozen=True)
class CorpusEntry:
    """A named diagram with its expected component count."""

    name: str
    pd_text: str
    components: int
    notes: str

    def diagram(self) -> Diagram:
        return parse_pd(self.pd_text)


def _braid_entry(name: str, word: list[int], strands: int, components: int, notes: str) -> CorpusEntry:
    return CorpusEntry(name, to_pd_text(braid_closure(word, strands)), components, notes)


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("unknot", "loops 1\n", 1, "zero-crossing circle"),
    CorpusEntry("unknot_kink_pos", "Xr 1 1 2 2\n", 1, "circle with one positive curl"),
    CorpusEntry("unknot_kink_neg", "Xl 1 2 2 1\n", 1, "circle with one negative curl"),
    CorpusEntry("unlink2", "loops 2\n", 2, "two split circles"),
    CorpusEntry("unlink3", "loops 3\n", 3, "three split circles"),
    _braid_entry("hopf_pos", [-1, -1], 2, 2, "clasp with linking number +1"),
    _braid_entry("hopf_neg", [1, 1], 2, 2, "clasp with linking number -1"),
    _braid_entry("trefoil_right", [-1, -1, -1], 2, 1, "total sign +3"),
    _braid_entry("trefoil_left", [1, 1, 1], 2, 1, "total sign -3"),
    _braid_entry("figure_eight", [1, -2, 1, -2], 3, 1, "four alternating crossings"),
    _braid_entry("torus_2_4", [-1, -1, -1, -1], 2, 2, "clasp with linking number +2"),
    _braid_entry("torus_2_6", [-1, -1, -1, -1, -1, -1], 2, 2, "clasp with linking number +3"),
    _braid_entry("whitehead", [1, -2, 1, -2, 1], 3, 2, "five crossings, linking number 0"),
    _braid_entry("borromean", [1, -2, 1, -2, 1, -2], 3, 3, "pairwise linking numbers 0"),
    _braid_entry("granny_sum", [1, 1, 1, 2, 2, 2], 3, 1, "two like-handed trefoils spliced"),
    CorpusEntry(
        "union_trefoil_unknot",
        to_pd_text(braid_closure([1, 1, 1], 2).distant_union(Diagram((), 1))),
        2,
        "split union of a trefoil and a circle",
    ),
)


def get(name: str) -> CorpusEntry:
    for e in CORPUS:
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry named {name!r}")
