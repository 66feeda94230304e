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
    cur = list(range(1, strands + 1))
    ids: list[int] = []  # four raw ids per letter
    for letter in word:
        i = abs(letter)
        if not 0 < i < strands:
            raise ValueError(f"letter {letter} does not fit {strands} strands")
        c = len(ids) // 2 + strands + 1
        ids += (cur[i], cur[i - 1], c, c + 1) if letter > 0 else (cur[i - 1], c, c + 1, cur[i])
        cur[i - 1] = c
        cur[i] = c + 1
    # the closure joins the last edge at position p (from 1) to the first,
    # edge p, and the edges left are renumbered in order; a position no
    # letter touches keeps edge p and is a loop
    close = [0] * (len(ids) // 2 + strands + 1)  # per raw id, its new id
    for p, e in enumerate(cur, 1):
        close[e] = -p
    k = 0
    for e in range(1, len(close)):
        p = -close[e]
        if not p:
            k += 1
            close[e] = k
        elif p != e:
            close[e] = close[p]
    loops = sum(e == p for p, e in enumerate(cur, 1))
    it = map(close.__getitem__, ids)
    # each record made as Crossing._make does
    records = tuple([
        tuple.__new__(Crossing, r)
        for r in zip(zip(it, it, it, it), ["l" if w > 0 else "r" for w in word])
    ])
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
