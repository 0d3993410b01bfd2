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

import functools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
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
        for sized in (Ball, Ellipsoid, Polydisk):
            if name == sized.__name__.lower():
                return sized(*self.sizes(len(sized._fields)))
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
    if path is None:
        return
    if path == "-":   # open() would take it as a file name, not as stdout
        raise OSError("'-' is not a file path; stdout carries the payload")
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
    bound = (obstructions.f_lower_bound if args.command == "fbound"
             else obstructions.g_lower_bound)   # read at call time: patches are seen
    text = str(bound(a, args.dmax))
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


# The commands, declared once for _plain_read and _build_parser: (name, help,
# positionals, options), each positional (dest, help), each option (flag, kind,
# default, help) of kind "int", "str", "flag" (a bare flag) or the tuple of its
# choices.  Every command also takes _COMMON; main runs _runs()[name].
_COMMON = (("--node-limit", "int", None,
            "cap on polygon-search nodes (default 10^7, env ECHCAP_NODE_LIMIT)"),
           ("--meta", "str", None, "write a JSON sidecar with argv and a timestamp"))
_COMMANDS = (
    ("capacities", "capacity sequence of a domain", (("spec", None),),
     (("--kmax", "int", 10, None),
      ("--full", "flag", False, "full spectrum (k >= 1) for balls and ellipsoids"),
      ("--format", ("csv", "json"), "csv", None))),
    ("embed", "embedding obstruction between domains", (("inner", None), ("outer", None)),
     (("--kmax", "int", 50, None), ("--mode", ("weak", "strict"), "weak", None))),
    ("fbound", "ellipsoid-into-ball lower bound", (("a", None),),
     (("--dmax", "int", 10, None), ("--format", ("text", "json"), "text", None))),
    ("gbound", "polydisk-into-ball lower bound", (("a", None),),
     (("--dmax", "int", 6, None), ("--format", ("text", "json"), "text", None))),
    ("pack", "ball packing inequalities",
     (("sizes", "comma-separated sizes, e.g. 1/2,1/3"),), (("--dmax", "int", 6, None),)),
    ("biran", "packing sufficiency conditions",
     (("sizes", "comma-separated sizes, e.g. 1/2,1/3"),), (("--dmax", "int", 10, None),)),
    ("asym", "volume-ratio convergence trace", (("spec", None),),
     (("--kmax", "int", 1000, None), ("--stride", "int", 1, None),
      ("--format", ("csv", "json"), "csv", None))),
    ("qw", "action bound check c_k < sqrt(2k vol_Y)", (("spec", None),),
     (("--kmax", "int", 1000, None),)),
)


def _runs():
    """The function each command runs, by name: the only map from names to functions."""
    return {"capacities": _cmd_capacities, "embed": _cmd_embed, "fbound": _cmd_bound,
            "gbound": _cmd_bound, "pack": _cmd_pack, "biran": _cmd_biran,
            "asym": _cmd_asym, "qw": _cmd_qw}


@functools.cache
def _build_parser():
    """The argparse tree of _COMMANDS, built by the first call that needs it
    (help, a usage error or argv the plain read declines) and then reused:
    it depends on no input and holds no function.
    argparse is imported here, so plain argv never loads it."""
    import argparse
    parser = argparse.ArgumentParser(prog="echcap", description=(
        "Exact capacities of four-dimensional model domains and the embedding "
        "obstructions they induce."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, what, positionals, options in _COMMANDS:
        p = sub.add_parser(name, help=what)
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        for flag, kind, default, text in options + _COMMON:
            if kind == "flag":
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=int if kind == "int" else None, default=default,
                               choices=None if isinstance(kind, str) else kind, help=text)
    return parser


def _plain_read(argv: List[str]) -> Optional[SimpleNamespace]:
    """The Namespace `parse_args(argv)` returns, read off _COMMANDS for plain
    argv: a command, then its positionals and exact `--option value` pairs or
    bare flags in any order, the last repeat winning.  Anything else (help,
    --opt=value, an abbreviation, `--`, a value starting with '-', one that
    int() or the choices reject, too many or too few positionals) returns
    None, and argparse parses it: help, usage and errors come from it alone."""
    for name, _, positionals, options in _COMMANDS:
        if argv and argv[0] == name:
            break
    else:
        return None
    args = {"command": name}
    kinds = {}
    for flag, kind, default, _ in options + _COMMON:
        kinds[flag] = kind
        args[flag[2:].replace("-", "_")] = default
    waiting = [dest for dest, _ in positionals]
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if not waiting:
                return None
            args[waiting.pop(0)] = token
            continue
        kind = kinds.get(token)
        text = True
        if kind != "flag":
            text = next(tokens, "-")   # a missing value declines as a '-' one does
            if kind is None or text[:1] == "-":
                return None
            if kind == "int":
                try:
                    text = int(text)
                except ValueError:
                    return None
            elif kind != "str" and text not in kind:
                return None
        args[token[2:].replace("-", "_")] = text
    return None if waiting else SimpleNamespace(**args)


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
        code = _runs()[args.command](args)
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
