"""Closures of braid words as diagrams.

A word is a list of nonzero ints: letter i crosses strands i and i+1
with the left strand passing over, letter -i with the right strand
passing over.  Strands run downward and the closure joins each bottom
position back to its top.  With the downward reference orientation a
positive letter is an ``l`` crossing and a negative letter an ``r``
crossing, so closure([-1, -1], 2) is the clasp with total sign +2.
"""

from __future__ import annotations

import random
from typing import Sequence

from .diagram import Crossing, Diagram, _trusted


def braid_closure(word: Sequence[int], strands: int) -> Diagram:
    """The trace closure of a braid word.

    Strand positions never crossed by a letter close into free loops.
    """
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    for letter in word:
        if not 0 < abs(letter) < strands:
            raise ValueError(f"letter {letter} does not fit {strands} strands")
    cur = list(range(1, strands + 1))
    next_id = strands + 1
    raw: list[tuple[str, tuple[int, int, int, int]]] = []
    for letter in word:
        i = abs(letter)
        a, b = cur[i - 1], cur[i]
        c, d = next_id, next_id + 1
        next_id += 2
        if letter > 0:
            raw.append(("l", (b, a, c, d)))
        else:
            raw.append(("r", (a, c, d, b)))
        cur[i - 1], cur[i] = c, d
    # the closure joins the last edge at each position to its first, edge
    # p + 1; a position no letter touches keeps edge p + 1 and is a loop
    joined = {cur[p]: p + 1 for p in range(strands)}
    merged = [(tag, tuple(joined.get(e, e) for e in edges)) for tag, edges in raw]
    used = {e for _, edges in merged for e in edges}
    loops = sum(cur[p] == p + 1 for p in range(strands))
    remap = {e: i for i, e in enumerate(sorted(used), start=1)}
    records = tuple(
        Crossing(tuple(remap[e] for e in edges), tag) for tag, edges in merged
    )
    return _trusted(records, loops)


def random_word(
    rng: random.Random,
    max_crossings: int,
    min_strands: int = 2,
    max_strands: int = 4,
) -> tuple[list[int], int]:
    """A random braid word; deterministic for a given rng state."""
    strands = rng.randint(min_strands, max_strands)
    length = rng.randint(1, max(1, max_crossings))
    word = []
    for _ in range(length):
        i = rng.randint(1, strands - 1)
        word.append(i if rng.random() < 0.5 else -i)
    return word, strands


def random_closure(rng: random.Random, max_crossings: int) -> Diagram:
    word, strands = random_word(rng, max_crossings)
    return braid_closure(word, strands)
