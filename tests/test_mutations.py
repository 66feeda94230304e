"""Seeded mutations of the corpus texts through four verbs of the CLI.

Every mutant either runs (exit 0) or is refused with an ``error:`` line
(exit 1); none may raise or reach an internal error (exit 2).  Some
mutations keep a file valid (relabelled edge ids, a crossing switched
with its record re-rooted, records reordered, comments and blank lines),
so that both exits are exercised.
"""

import contextlib
import io
import random

from lmtkauffman.cli import main
from lmtkauffman.corpus import CORPUS

VERBS = (
    ("compute", "--oriented", "--specialize"),
    ("gtau",),
    ("lmt",),
    ("verify",),
)

# bytes that parse_pd treats specially, and some that it must refuse
_ALPHABET = "0123456789 \nXrl#-+_٣²loops"


def _records(lines):
    # indices of the lines that still look like crossing records
    return [
        i
        for i, line in enumerate(lines)
        if len(line.split()) == 5 and line.split()[0] in ("Xr", "Xl")
    ]


def _relabel(lines, rng):
    # an injective map of edge ids to other positive ids: still valid
    rs = _records(lines)
    ids = sorted({t for i in rs for t in lines[i].split()[1:]})
    remap = dict(zip(ids, map(str, rng.sample(range(1, 10 * len(ids) + 10), len(ids)))))
    lines = list(lines)
    for i in rs:
        tag, *edges = lines[i].split()
        lines[i] = " ".join([tag] + [remap[t] for t in edges])
    return lines


def _switch(lines, rng):
    # Crossing.switched on one record's text: the other strand on top
    rs = _records(lines)
    if not rs:
        return lines
    i = rng.choice(rs)
    tag, e1, e2, e3, e4 = lines[i].split()
    lines = list(lines)
    lines[i] = f"Xl {e4} {e1} {e2} {e3}" if tag == "Xr" else f"Xr {e2} {e3} {e4} {e1}"
    return lines


def _shuffle(lines, rng):
    # records in another order, a loops header kept first
    head = [line for line in lines if line.startswith("loops")]
    rest = [line for line in lines if not line.startswith("loops")]
    rng.shuffle(rest)
    return head + rest


def _annotate(lines, rng):
    lines = list(lines)
    lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# note", "   "]))
    return lines


def _retag(lines, rng):
    # Xr <-> Xl with the record left as it is: usually breaks edge roles
    rs = _records(lines)
    if not rs:
        return lines
    i = rng.choice(rs)
    lines = list(lines)
    lines[i] = ("Xl" if lines[i].startswith("Xr") else "Xr") + lines[i][2:]
    return lines


def _loops_header(lines, rng):
    k = rng.choice(["0", "2", "5", "17", "129", "5000", "1000000", "٣", "-1", ""])
    rest = [line for line in lines if not line.startswith("loops")]
    return [f"loops {k}"] + rest


def _line_edit(lines, rng):
    lines = list(lines) or [""]
    i = rng.randrange(len(lines))
    op = rng.randrange(3)
    if op == 0:
        lines.insert(i, lines[i])
    elif op == 1:
        del lines[i]
    else:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return lines


def _byte_edit(lines, rng):
    text = "\n".join(lines)
    i = rng.randint(0, len(text))
    op = rng.randrange(3)
    ch = rng.choice(_ALPHABET)
    if op == 0:
        text = text[:i] + ch + text[i:]
    elif op == 1:
        text = text[:i] + text[i + 1 :]
    else:
        text = text[:i] + ch + text[i + 1 :]
    return text.split("\n")


VALID_KEEPING = (_relabel, _switch, _shuffle, _annotate)
BREAKING = (_retag, _loops_header, _line_edit, _byte_edit)


def mutants(seed, count):
    rng = random.Random(seed)
    texts = [e.pd_text for e in CORPUS]
    for _ in range(count):
        lines = rng.choice(texts).splitlines()
        for _ in range(rng.randint(1, 3)):
            mutate = rng.choice(VALID_KEEPING if rng.random() < 0.6 else BREAKING)
            lines = mutate(lines, rng)
        yield "\n".join(lines) + "\n"


def test_mutated_corpus_texts_exit_0_or_1(tmp_path):
    path = tmp_path / "m.pd"
    exits = {0: 0, 1: 0}
    for text in mutants(seed=7, count=500):
        path.write_text(text, encoding="utf-8")
        for verb in VERBS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--porcelain", verb[0], str(path), *verb[1:]])
            assert code in (0, 1), (verb, text, err.getvalue())
            if code == 1:
                assert err.getvalue().startswith("error: "), (verb, text, err.getvalue())
            else:
                assert err.getvalue() == "", (verb, text)
            exits[code] += 1
    # both outcomes are common, so each path is exercised
    assert min(exits.values()) > sum(exits.values()) // 4, exits
