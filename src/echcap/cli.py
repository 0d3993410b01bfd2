"""Command line interface.

Usage:
    echcap capacities "polydisk(1,1)" --kmax 11
    echcap capacities "toric(euclidean)" --kmax 3
    echcap embed "ellipsoid(2,1)" "ball(3/2)" --kmax 20
    echcap fbound 5 --dmax 10
    echcap gbound 7/2 --dmax 6
    echcap pack "1/2,1/2" --dmax 6
    echcap biran "1/2,1/2" --dmax 10
    echcap asym "ball(1)" --kmax 10000 --stride 100 --format csv
    echcap qw "ellipsoid(1,2)" --kmax 1000

Domain specs:  ball(a) | ellipsoid(a,b) | polydisk(a,b) | toric(euclidean)
| toric(l1:a,b) | toric(poly:[[x,y],...]) | union(spec;spec;...)
with sizes and vertex coordinates written as integers or p/q (a coordinate
may take a leading '-').

Exit codes: 0 success / no obstruction, 1 obstruction or violation found,
2 usage or parse error, 3 enumeration budget exceeded.  All payloads are
deterministic; timestamps only ever go to the optional --meta sidecar.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .capacities import (INTERIOR_STRICT, WEAK, capacities,
                         ellipsoid_full_capacities)
from .domains import Ball, DisjointUnion, Domain, Ellipsoid, Polydisk, ToricNorm
from .errors import (ApproxTie, SpecParseError, ToricEnumerationBudgetExceeded)
from .lattice import EUCLIDEAN, Polygonal, WeightedL1, resolve_node_limit
from .values import CapacityValue

EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# domain spec parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> SpecParseError:
        return SpecParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def rational(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] == "/"):
            self.pos += 1
        token = self.text[start:self.pos]
        if not token:
            raise self.error("expected a rational number (p/q or integer)")
        return _rational(token, start)

    def sizes(self, count: int) -> List[Fraction]:
        """count comma-separated rationals and the closing ')'."""
        values = [self.rational()]
        for _ in range(count - 1):
            self.expect(",")
            values.append(self.rational())
        self.expect(")")
        return values

    def signed(self) -> Fraction:
        """A rational with an optional leading '-'."""
        self.skip_ws()
        if self.peek() != "-":
            return self.rational()
        self.pos += 1
        return -self.rational()

    def vertices(self) -> List[Tuple[Fraction, Fraction]]:
        """[[x,y],[x,y],...] with signed rational coordinates."""
        self.expect("[")
        verts = []
        while True:
            self.expect("[")
            x = self.signed()
            self.expect(",")
            verts.append((x, self.signed()))
            self.expect("]")
            self.skip_ws()
            if self.peek() != ",":
                break
            self.pos += 1
        self.expect("]")
        return verts

    def domain(self) -> Domain:
        name = self.word().lower()
        self.expect("(")
        if name == "ball":
            return Ball(*self.sizes(1))
        if name == "ellipsoid":
            return Ellipsoid(*self.sizes(2))
        if name == "polydisk":
            return Polydisk(*self.sizes(2))
        if name == "toric":
            return self._toric()
        if name == "union":
            parts = [self.domain()]
            self.skip_ws()
            while self.peek() == ";":
                self.pos += 1
                parts.append(self.domain())
                self.skip_ws()
            self.expect(")")
            return DisjointUnion(parts)
        raise self.error(f"unknown domain {name!r}")

    def _toric(self) -> Domain:
        kind = self.word().lower()
        if kind == "euclidean":
            self.expect(")")
            return ToricNorm(EUCLIDEAN)
        if kind == "l1":
            self.expect(":")
            return ToricNorm(WeightedL1(*self.sizes(2)))
        if kind == "poly":
            self.expect(":")
            verts = self.vertices()
            try:
                norm = Polygonal(tuple(verts))
            except ValueError as exc:
                raise self.error(str(exc))
            self.expect(")")
            return ToricNorm(norm)
        raise self.error(f"unknown toric norm {kind!r}")


def parse_domain_spec(text: str) -> Domain:
    parser = _Parser(text)
    try:
        domain = parser.domain()
    except RecursionError:
        raise parser.error("spec nested too deeply") from None
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after domain spec")
    return domain


def _rational(text: str, offset: int = 0) -> Fraction:
    """The rational token of every size, in specs, size lists and the a of
    fbound/gbound: an integer or p/q in ASCII digits, q nonzero, surrounding
    whitespace allowed.  Anything else (a sign, a decimal, an exponent) is a
    SpecParseError 'bad rational' at the token's position, offset plus
    where it starts in text."""
    token = text.strip()
    p, slash, q = token.partition("/")
    if p.isascii() and p.isdigit() and (
            not slash or q.isascii() and q.isdigit() and int(q)):
        return Fraction(int(p), int(q) if slash else 1)
    raise SpecParseError(f"bad rational {token!r}",
                         offset + len(text) - len(text.lstrip()))


def _parse_size_list(text: str) -> List[Fraction]:
    out = []
    offset = 0
    for token in text.split(","):
        out.append(_rational(token, offset))
        offset += len(token) + 1
    return out


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_value(value: CapacityValue) -> str:
    """Rationals as p/q (integers bare), other values ~ with 12 decimals."""
    if value.is_infinite:
        return "inf"
    if value.is_exact:
        return str(value.frac)
    return f"~{value.value:.12f}"


def _emit(payload) -> None:
    import json   # as obstructions and asymptotics: loaded by the commands that run it
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _write_meta(path: Optional[str], command: str, argv: List[str]) -> None:
    if not path:
        return
    import datetime   # here, not at the top: only --meta runs pay its import
    import json
    meta = {
        "command": command,
        "argv": argv,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_capacities(args) -> int:
    domain = parse_domain_spec(args.spec)
    if args.full and not isinstance(domain, Ellipsoid):   # a Ball is E(a, a)
        raise ValueError("--full is defined for balls and ellipsoids only")
    seq = (ellipsoid_full_capacities(domain.a, domain.b, args.kmax) if args.full
           else capacities(domain, args.kmax, node_limit=args.node_limit))
    # each run of equal entries is formatted once
    rendered = []
    last = text = None
    if seq.den is None:   # iterating shares one value object per run
        for value in seq:
            if value is not last:
                last, text = value, format_value(value)
            rendered.append(text)
    else:                 # ints over den, reduced as str(Fraction) would
        den = seq.den
        for v in seq._items:
            if v != last:
                g = math.gcd(v, den)
                last, text = v, str(v // g) if g == den else f"{v // g}/{den // g}"
            rendered.append(text)
    if args.format == "json":
        _emit({
            "spec": args.spec,
            "kmax": args.kmax,
            "index_origin": seq.index_origin,
            "entries": rendered,
        })
    else:
        sys.stdout.write(",".join(rendered) + "\n")
    return EXIT_OK


def _cmd_embed(args) -> int:
    inner = parse_domain_spec(args.inner)
    outer = parse_domain_spec(args.outer)
    mode = INTERIOR_STRICT if args.mode == "strict" else WEAK
    from . import obstructions
    verdict = obstructions.embedding_obstruction(
        inner, outer, args.kmax, mode, node_limit=args.node_limit)
    payload = {
        "inner": args.inner,
        "outer": args.outer,
        "kmax": args.kmax,
        "mode": args.mode,
        "status": "obstructed" if verdict.obstructed else "no_obstruction",
    }
    if verdict.obstructed:
        payload["witness_k"] = verdict.witness_k
        payload["lower"] = format_value(verdict.lower)
        payload["upper"] = format_value(verdict.upper)
    _emit(payload)
    return EXIT_OBSTRUCTED if verdict.obstructed else EXIT_OK


def _cmd_bound(args) -> int:
    a = _rational(args.a)
    from . import obstructions
    # looked up at call time, not held by the cached parser: patches are seen
    text = str(getattr(obstructions, args.bound)(a, args.dmax))
    if args.format == "json":
        _emit({"a": args.a, "dmax": args.dmax, "bound": text})
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


def _cmd_pack(args) -> int:
    sizes = _parse_size_list(args.sizes)
    from . import obstructions
    den, rows, pairs = obstructions._packing_table(sizes, args.dmax)
    # each row's multiplier list and lhs text are made once, for every bound
    shown = [(list(mult), str(Fraction(lhs, den))) for _, mult, lhs in rows]
    all_hold = all(ok for _, _, ok in pairs)
    _emit({
        "a_list": [str(a) for a in sizes],
        "dmax": args.dmax,
        "all_hold": all_hold,
        "status": "no_obstruction" if all_hold else "obstructed",
        "inequalities": [{"multipliers": shown[i][0], "bound": d, "lhs": shown[i][1],
                          "satisfied": ok} for d, i, ok in pairs],
    })
    return EXIT_OK if all_hold else EXIT_OBSTRUCTED


def _cmd_biran(args) -> int:
    sizes = _parse_size_list(args.sizes)
    from . import obstructions
    verdict = obstructions.biran_sufficiency(sizes, args.dmax)
    payload = {
        "a_list": [str(a) for a in sizes],
        "dmax": args.dmax,
        "status": verdict.status,
    }
    if verdict.multipliers is not None:
        payload["multipliers"] = list(verdict.multipliers)
        payload["bound"] = verdict.bound
    _emit(payload)
    return EXIT_OK if verdict.sufficient else EXIT_OBSTRUCTED


def _cmd_asym(args) -> int:
    domain = parse_domain_spec(args.spec)
    from . import asymptotics
    report = asymptotics.volume_ratio_trace(
        domain, args.kmax, args.stride, node_limit=args.node_limit)
    if report.truncated:
        sys.stderr.write(
            f"note: trace truncated at k={report.trace[-1].k}; "
            "far from the asymptotic regime\n"
        )
    if args.format == "json":
        _emit({
            "spec": args.spec,
            "kmax": args.kmax,
            "stride": args.stride,
            "vol": format_value(report.vol_x),
            "vol_boundary": format_value(report.vol_y),
            "final_ratio": report.final_ratio,
            "max_deviation_last_decade": report.max_deviation_last_decade,
            "truncated": report.truncated,
            "trace": [
                {"k": p.k, "c_k": format_value(p.c_k), "ratio": p.ratio}
                for p in report.trace
            ],
        })
    else:
        sys.stdout.write("k,c_k,ratio\n")
        for p in report.trace:
            sys.stdout.write(f"{p.k},{format_value(p.c_k)},{p.ratio:.9f}\n")
    return EXIT_OK


def _cmd_qw(args) -> int:
    domain = parse_domain_spec(args.spec)
    from . import asymptotics
    verdict = asymptotics.qw_check(domain, args.kmax, node_limit=args.node_limit)
    payload = {
        "spec": args.spec,
        "kmax": verdict.kmax,
        "status": "holds_up_to" if verdict.holds else "violated_at",
        "exploratory": verdict.exploratory,
    }
    if not verdict.holds:
        payload["k"] = verdict.k
    _emit(payload)
    return EXIT_OK if verdict.holds else EXIT_OBSTRUCTED


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first `main` call and then reused: it
    depends on no input and holds only this module's command functions."""
    parser = argparse.ArgumentParser(
        prog="echcap",
        description="Exact capacities of four-dimensional model domains and "
                    "the embedding obstructions they induce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--node-limit", type=int, default=None,
                       help="cap on polygon-search nodes "
                            "(default 10^7, env ECHCAP_NODE_LIMIT)")
        p.add_argument("--meta", default=None,
                       help="write a JSON sidecar with argv and a timestamp")

    p = sub.add_parser("capacities", help="capacity sequence of a domain")
    p.add_argument("spec")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--full", action="store_true",
                   help="full spectrum (k >= 1) for balls and ellipsoids")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(run=_cmd_capacities)

    p = sub.add_parser("embed", help="embedding obstruction between domains")
    p.add_argument("inner")
    p.add_argument("outer")
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--mode", choices=("weak", "strict"), default="weak")
    common(p)
    p.set_defaults(run=_cmd_embed)

    for name, what, dmax, bound in (
            ("fbound", "ellipsoid-into-ball lower bound", 10, "f_lower_bound"),
            ("gbound", "polydisk-into-ball lower bound", 6, "g_lower_bound")):
        p = sub.add_parser(name, help=what)
        p.add_argument("a")
        p.add_argument("--dmax", type=int, default=dmax)
        p.add_argument("--format", choices=("text", "json"), default="text")
        common(p)
        p.set_defaults(run=_cmd_bound, bound=bound)

    for name, what, dmax, run in (
            ("pack", "ball packing inequalities", 6, _cmd_pack),
            ("biran", "packing sufficiency conditions", 10, _cmd_biran)):
        p = sub.add_parser(name, help=what)
        p.add_argument("sizes", help="comma-separated sizes, e.g. 1/2,1/3")
        p.add_argument("--dmax", type=int, default=dmax)
        common(p)
        p.set_defaults(run=run)

    p = sub.add_parser("asym", help="volume-ratio convergence trace")
    p.add_argument("spec")
    p.add_argument("--kmax", type=int, default=1000)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(run=_cmd_asym)

    p = sub.add_parser("qw", help="action bound check c_k < sqrt(2k vol_Y)")
    p.add_argument("spec")
    p.add_argument("--kmax", type=int, default=1000)
    common(p)
    p.set_defaults(run=_cmd_qw)

    return parser


def _plain_read(argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace `parse_args(argv)` returns, read straight off the
    declarations of _build_parser, for plain argv: a command, then its
    positionals and exact `--option value` pairs or bare flags in any order,
    the last repeat of an option winning.  Anything else (help, --opt=value,
    an abbreviation, `--`, a value starting with '-', one that `type` or
    `choices` rejects, too many or too few positionals) returns None, and
    argparse parses it: help, usage and error text come from argparse alone."""
    commands, = _build_parser()._get_positional_actions()
    sub = commands.choices.get(argv[0]) if argv else None
    if sub is None:
        return None
    args = {commands.dest: argv[0], **sub._defaults}
    args.update((a.dest, a.default) for a in sub._actions
                if a.default is not argparse.SUPPRESS)
    positionals = sub._get_positional_actions()
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if not positionals:
                return None
            action, text = positionals.pop(0), token
        else:
            action = sub._option_string_actions.get(token)
            if type(action) is argparse._StoreTrueAction:
                args[action.dest] = action.const
                continue
            text = next(tokens, "-")   # a missing value declines as a '-' one does
            if type(action) is not argparse._StoreAction or text[:1] == "-":
                return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        args[action.dest] = value
    return None if positionals else argparse.Namespace(**args)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _plain_read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
    try:
        args.node_limit = resolve_node_limit(args.node_limit)
        code = args.run(args)
    except ToricEnumerationBudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(f"note: search stopped at direction "
                         f"{exc.directions_done + 1} of {exc.directions_total}\n")
        return EXIT_BUDGET
    except (SpecParseError, ApproxTie, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except RecursionError:
        # a union that parsed but is nested deeper than hashing or
        # evaluating its parts can recurse
        sys.stderr.write("error: spec nested too deeply\n")
        return EXIT_USAGE
    try:
        _write_meta(args.meta, args.command, argv)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write the --meta file: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
