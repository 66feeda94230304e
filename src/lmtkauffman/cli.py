"""Command line front end.

Verbs: compute, gtau, lmt, verify, corpus.  Output is key=value lines;
--porcelain suppresses the human comment lines so scripts can parse the
rest as-is.  Exit status 0 on success (and after --help), 1 on a usage
error, on unreadable or invalid input and on verification failure, 2
when an internal invariant breaks.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Iterator

from . import corpus
from .braid import random_closure
from .diagram import Diagram, DiagramError, InternalInvariantError, parse_pd
from .kauffman import _a_shifted, lambda_poly
from .laurent import SpecializationError
from .lmt import lmt_rhs, verify_all
from .transfer import g_tau


# lambda of k components runs down to z^-(k - 1) with about k^2 / 2 terms
# of up to k-digit coefficients, so the limit bounds the output: at 128
# components `compute` prints 0.49 MB per polynomial and --oriented
# --specialize takes 0.1 s; 256 would print 3.5 MB per polynomial and take
# 0.6 s (timed on a 2-vCPU VM).
MAX_COMPUTE_COMPONENTS = 128

# verify --random K draws words of up to K letters.  On the first closures
# of seeds 0-299, verify took at most 0.2 s each at K = 24, but up to 9 s
# at K = 32 and over 20 s at K = 40 (timed on a 2-vCPU VM).
MAX_RANDOM_CROSSINGS = 24


class _UsageError(Exception):
    """A command line refused as a usage error: exit 1, not argparse's 2."""


def _read_diagram(path: str) -> Diagram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DiagramError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_pd(text)


def _parse_mask(bits: str | None, d: Diagram) -> int:
    if bits is None:
        return 0
    com = d.num_components
    if len(bits) != com or any(ch not in "01" for ch in bits):
        raise DiagramError(
            f"orientation mask must be {com} chars of 0/1, one per component"
        )
    return int(bits[::-1] or "0", 2)  # character i is bit i


def _print_result(args, path: str, d: Diagram, lines: list[str]) -> None:
    # the header goes out only with the result, so a refused input
    # leaves nothing on stdout
    if not args.porcelain:
        print(f"# {path}: {len(d.crossings)} crossings, {d.num_components} components")
    print("\n".join(lines))


def cmd_compute(args) -> int:
    if args.orientation is not None and not args.oriented:
        raise DiagramError("--orientation needs --oriented")
    d = _read_diagram(args.path)
    com = d.num_components
    if com > MAX_COMPUTE_COMPONENTS:
        raise DiagramError(
            f"compute handles at most {MAX_COMPUTE_COMPONENTS} components, this diagram "
            f"has {com}: its polynomial would run to z^-{com - 1}"
        )
    mask = _parse_mask(args.orientation, d)
    lam = lambda_poly(d)
    lines = [f"lambda={lam}"]
    if args.oriented:
        # f_oriented from the lambda above, so the skein recursion runs once
        w = d.writhe(mask)
        f = _a_shifted(lam, -w)
        lines += [f"writhe={w}", f"f={f}"]
    if args.specialize:
        if args.oriented:
            lines.append(f"f_specialized={f.substitute_z()}")
        else:
            lines.append(f"lambda_specialized={lam.substitute_z()}")
    _print_result(args, args.path, d, lines)
    return 0


def cmd_gtau(args) -> int:
    d = _read_diagram(args.path)
    _print_result(args, args.path, d, [f"gtau={g_tau(d)}"])
    return 0


def cmd_lmt(args) -> int:
    d = _read_diagram(args.path)
    mask = _parse_mask(args.orientation, d)
    _print_result(args, args.path, d, [f"lmt_rhs={lmt_rhs(d, mask)}"])
    return 0


def _verify_targets(args) -> Iterator[tuple[str, Diagram]]:
    # a generator, so random closures are drawn one report at a time; its
    # refusals all come before the first yield, hence before any output
    targets = (args.path is not None) + args.corpus + (args.random is not None)
    if targets > 1:
        raise DiagramError("verify takes one of a path, --corpus, or --random N")
    if not targets:
        raise DiagramError("verify needs a path, --corpus, or --random N")
    if args.random is None and (args.max_crossings, args.seed) != (None, None):
        raise DiagramError("--max-crossings and --seed need --random N")
    if args.corpus:
        for e in corpus.CORPUS:
            yield e.name, e.diagram()
    elif args.random is not None:
        k = 8 if args.max_crossings is None else args.max_crossings
        if args.random < 1:
            raise DiagramError("--random needs N >= 1")
        if k < 1:
            raise DiagramError("--max-crossings needs K >= 1")
        if k > MAX_RANDOM_CROSSINGS:
            raise DiagramError(f"--max-crossings needs K <= {MAX_RANDOM_CROSSINGS}")
        seed = args.seed or 0
        if seed < 0:  # random.Random would seed from |S|
            raise DiagramError("--seed needs S >= 0")
        rng = random.Random(seed)
        for i in range(args.random):
            yield f"random[{i}]", random_closure(rng, k)
    else:
        yield args.path, _read_diagram(args.path)


def cmd_verify(args) -> int:
    failures = 0
    checks = 0
    for name, d in _verify_targets(args):
        # one write per subject: --random N still streams, a closure at a time
        reports = verify_all(d, subject=name)
        checks += len(reports)
        lines = []
        for subject, claim, lhs, rhs, passed in reports:
            if passed:
                lines.append(
                    f"{subject}.{claim}=pass\n" if args.porcelain else f"PASS {subject} {claim}\n"
                )
                continue
            failures += 1
            if args.porcelain:
                lines.append(
                    f"{subject}.{claim}=fail\n"
                    f"{subject}.{claim}.lhs={lhs}\n{subject}.{claim}.rhs={rhs}\n"
                )
            else:
                lines.append(f"FAIL {subject} {claim}: lhs={lhs} rhs={rhs}\n")
        sys.stdout.write("".join(lines))
    if args.porcelain:
        print(f"result={'pass' if failures == 0 else 'fail'}")
    else:
        print(f"# {checks} checks, {failures} failures")
    return 0 if failures == 0 else 1


def cmd_corpus(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise _UsageError("corpus list takes no name")
        for e in corpus.CORPUS:
            if args.porcelain:
                print(e.name)
            else:
                d = e.diagram()
                print(
                    f"{e.name:22s} crossings={len(d.crossings)} "
                    f"components={d.num_components} {e.notes}"
                )
        return 0
    if args.name is None:
        raise _UsageError("corpus show needs a name")
    try:
        entry = corpus.get(args.name)
    except KeyError:
        raise _UsageError(f"no corpus entry named {args.name!r}") from None
    sys.stdout.write(entry.pd_text)
    return 0


class _Parser(argparse.ArgumentParser):
    # the verbs' parsers are made by add_parser, hence of this class too
    def error(self, message: str):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared."""
    p = _Parser(
        prog="lmtkauffman",
        description="Exact framed-link polynomial computation and identity checks.",
    )
    p.add_argument(
        "--porcelain",
        action="store_true",
        help="machine-readable output only (key=value lines)",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    pc = sub.add_parser("compute", help="polynomial of a diagram file")
    pc.add_argument("path")
    pc.add_argument("--oriented", action="store_true", help="also print a^(-writhe) * lambda")
    pc.add_argument("--specialize", action="store_true", help="also evaluate at z = -a - a^-1")
    pc.add_argument("--orientation", metavar="BITS", help="component reversal mask, e.g. 01")
    pc.set_defaults(fn=cmd_compute)

    pg = sub.add_parser("gtau", help="orientation sum of a diagram file")
    pg.add_argument("path")
    pg.set_defaults(fn=cmd_gtau)

    pl = sub.add_parser("lmt", help="sublink side of the specialization formula")
    pl.add_argument("path")
    pl.add_argument("--orientation", metavar="BITS", help="component reversal mask")
    pl.set_defaults(fn=cmd_lmt)

    pv = sub.add_parser("verify", help="run every identity check")
    pv.add_argument("path", nargs="?", help="diagram file to verify")
    pv.add_argument("--corpus", action="store_true", help="verify the built-in corpus")
    pv.add_argument("--random", type=int, metavar="N", help="verify N random braid closures")
    # None unless given: without --random they are refused, with it 8 and 0
    pv.add_argument("--max-crossings", type=int, metavar="K")
    pv.add_argument("--seed", type=int, metavar="S")
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("corpus", help="list or print the built-in diagrams")
    pk.add_argument("action", choices=["list", "show"])
    pk.add_argument("name", nargs="?")
    pk.set_defaults(fn=cmd_corpus)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (_UsageError, OSError, DiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalInvariantError, SpecializationError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
