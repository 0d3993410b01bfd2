"""Reference checks of CLI outputs, written independently of echcap.

Every check works from the op's own parameters (see workloads.py) and returns
None when the output is right, or a one-line reason when it is not.

Reference values are either exact `Fraction`s or, for the Euclidean toric
norm, float intervals `(lo, hi)`:

- ellipsoid and ball entries: the value v is (a,b)_r exactly when fewer than
  r lattice points have a*m + b*n < v and at least r have a*m + b*n <= v;
- polydisk and toric(l1:a,b) entries: min over m of a*m + b*n with
  (m+1)(n+1) >= k+1 (the weighted-L1 toric domain is the polydisk);
- toric(euclidean): Pick's formula and the isoperimetric inequality give
  c_k >= -pi + sqrt(pi^2 + 4 pi k); the m-by-n rectangles give
  c_k <= min{2m + 2n : (m+1)(n+1) >= k+1};
- unions: brute-force max over all splits of k among the parts.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from workloads import Op, rat

TOL = 1e-9
TORIC_TRACE_KMAX = 25          # the CLI truncates toric qw and asym here
SAMPLES = 16

Ref = Union[Fraction, Tuple[float, float]]
Value = Union[Fraction, float]


# ---------------------------------------------------------------------------
# reference sequences
# ---------------------------------------------------------------------------

def lattice_count(a: Fraction, b: Fraction, v: Fraction, strict: bool) -> int:
    """#{(m, n) >= 0 : a*m + b*n < v}, or <= v when not strict."""
    count = 0
    am = Fraction(0)
    while am < v or (not strict and am == v):
        rest = v - am
        count += math.ceil(rest / b) if strict else math.floor(rest / b) + 1
        am += a
    return count


def is_rank(a: Fraction, b: Fraction, v: Fraction, r: int) -> bool:
    """Whether v is (a,b)_r, the r-th smallest a*m + b*n with repetitions."""
    return lattice_count(a, b, v, True) < r <= lattice_count(a, b, v, False)


def nk_values(a: Fraction, b: Fraction, count: int) -> List[Fraction]:
    """The `count` smallest a*m + b*n with repetitions, by plain enumeration."""
    level = max(a, b)
    while lattice_count(a, b, level, False) < count:
        level *= 2
    values = [a * m + b * n for m in range(int(level / a) + 1)
              for n in range(int((level - a * m) / b) + 1)]
    values.sort()
    return values[:count]


def polydisk_entry(a: Fraction, b: Fraction, k: int) -> Fraction:
    """min over m of a*m + b*n with (m+1)(n+1) >= k+1, on integers; m stops
    once a*m alone reaches the best value found."""
    scale = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    ia, ib = int(a * scale), int(b * scale)
    need = k + 1
    best = ib * k
    m = 1
    while m < need and ia * m < best:
        best = min(best, ia * m + ib * (-(-need // (m + 1)) - 1))
        m += 1
    return Fraction(best, scale)


def euclid_interval(k: int) -> Tuple[float, float]:
    lo = 0.0 if k == 0 else -math.pi + math.sqrt(math.pi ** 2 + 4 * math.pi * k)
    return lo, float(polydisk_entry(Fraction(2), Fraction(2), k))


def ref_seq(dom, kmax: int) -> Optional[List[Ref]]:
    """Reference c_0..c_kmax, or None when there is no reference (poly norms)."""
    tag = dom[0]
    if tag == "ball":
        return nk_values(dom[1], dom[1], kmax + 1)
    if tag == "ellipsoid":
        return nk_values(dom[1], dom[2], kmax + 1)
    if tag in ("polydisk", "l1"):
        return [polydisk_entry(dom[1], dom[2], k) for k in range(kmax + 1)]
    if tag == "euclid":
        return [euclid_interval(k) for k in range(kmax + 1)]
    if tag == "union":
        parts = [ref_seq(p, kmax) for p in dom[1]]
        if any(p is None for p in parts):
            return None
        acc = parts[0]
        for part in parts[1:]:
            acc = [max_plus_entry(acc, part, k) for k in range(kmax + 1)]
        return acc
    return None


def union_entries(dom, ks: Sequence[int]) -> Optional[Dict[int, Ref]]:
    """Union entries at the given k only; the last part is never folded."""
    parts = dom[1]
    head = ref_seq(parts[0] if len(parts) == 2 else ("union", parts[:-1]), max(ks))
    last = ref_seq(parts[-1], max(ks))
    if head is None or last is None:
        return None
    return {k: max_plus_entry(head, last, k) for k in ks}


def _lo_hi(r: Ref) -> Tuple[float, float]:
    return (float(r), float(r)) if isinstance(r, Fraction) else r


def max_plus_entry(f: Sequence[Ref], g: Sequence[Ref], k: int) -> Ref:
    if all(isinstance(x, Fraction) for x in (*f[:k + 1], *g[:k + 1])):
        return max(f[i] + g[k - i] for i in range(k + 1))
    return (max(_lo_hi(f[i])[0] + _lo_hi(g[k - i])[0] for i in range(k + 1)),
            max(_lo_hi(f[i])[1] + _lo_hi(g[k - i])[1] for i in range(k + 1)))


def ref_entries(dom, ks: Sequence[int]) -> Optional[Dict[int, Ref]]:
    """Reference entries at the given k, without building whole sequences
    where a single entry is cheaper."""
    tag = dom[0]
    if tag in ("polydisk", "l1"):
        return {k: polydisk_entry(dom[1], dom[2], k) for k in ks}
    if tag == "euclid":
        return {k: euclid_interval(k) for k in ks}
    if tag == "union":
        return union_entries(dom, ks)
    seq = ref_seq(dom, max(ks))
    return None if seq is None else {k: seq[k] for k in ks}


def volume(dom) -> Optional[Value]:
    tag = dom[0]
    if tag == "ball":
        return dom[1] * dom[1] / 2
    if tag == "ellipsoid":
        return dom[1] * dom[2] / 2
    if tag in ("polydisk", "l1"):
        return dom[1] * dom[2]
    if tag == "euclid":
        return math.pi
    if tag == "union":
        vols = [volume(p) for p in dom[1]]
        if any(v is None for v in vols):
            return None
        if all(isinstance(v, Fraction) for v in vols):
            return sum(vols, Fraction(0))
        return sum(float(v) for v in vols)
    return None


def has_polydisk(dom) -> bool:
    if dom[0] == "union":
        return any(has_polydisk(p) for p in dom[1])
    return dom[0] == "polydisk"


# ---------------------------------------------------------------------------
# output parsing and comparison
# ---------------------------------------------------------------------------

def parse_value(text: str) -> Value:
    if text == "inf":
        return math.inf
    if text.startswith("~"):
        return float(text[1:])
    return Fraction(text)


def matches(got: Value, ref: Ref) -> bool:
    if isinstance(ref, Fraction):
        return isinstance(got, Fraction) and got == ref
    return ref[0] - TOL <= float(got) <= ref[1] + TOL


def rank_check(dom, k: int, got: Value, full: bool) -> Optional[bool]:
    """Closed-form ellipsoid/ball entry by lattice counting; None if n/a."""
    if dom[0] not in ("ball", "ellipsoid"):
        return None
    a, b = (dom[1], dom[1]) if dom[0] == "ball" else (dom[1], dom[2])
    return isinstance(got, Fraction) and is_rank(a, b, got, k if full else k + 1)


def sample_ks(op: Op, lo: int, hi: int) -> List[int]:
    rng = random.Random(" ".join(op.argv))
    ks = {lo, min(lo + 1, hi), hi}
    ks.update(rng.randint(lo, hi) for _ in range(SAMPLES))
    return sorted(ks)


def check_entries(op: Op, dom, entries: List[str], kmax: int, full: bool) -> Optional[str]:
    origin = 1 if full else 0
    if len(entries) != kmax + 1 - origin:
        return f"{len(entries)} entries for kmax={kmax}"
    try:
        vals = [parse_value(e) for e in entries]
    except (ValueError, ZeroDivisionError):
        return "unparsable entry"
    if not full and vals[0] != 0:
        return f"c_0 = {entries[0]}, not 0"
    for i in range(len(vals) - 1):
        x, y = vals[i], vals[i + 1]
        exact = isinstance(x, Fraction) and isinstance(y, Fraction)
        if (x > y) if exact else (float(x) > float(y) + TOL):
            return f"not monotone at k={origin + i}"
    ks = sample_ks(op, origin, kmax)
    if dom[0] in ("ball", "ellipsoid"):
        for k in ks:
            if not rank_check(dom, k, vals[k - origin], full):
                return f"c_{k} = {entries[k - origin]} fails the lattice count"
        return None
    refs = ref_entries(dom, ks)
    if refs is None:
        return None
    for k in ks:
        if not matches(vals[k - origin], refs[k]):
            return f"c_{k} = {entries[k - origin]}, reference {refs[k]}"
    return None


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_capacities(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    if code != 0:
        return f"exit {code}"
    if p["format"] == "json":
        obj = _json(stdout)
        if obj is None:
            return "bad json"
        if (obj.get("spec"), obj.get("kmax"), obj.get("index_origin")) != \
                (op.argv[1], p["kmax"], 1 if p["full"] else 0):
            return "json header mismatch"
        entries = obj["entries"]
    else:
        lines = stdout.split("\n")
        if len(lines) != 2 or lines[1]:
            return "csv is not one line"
        entries = lines[0].split(",")
    return check_entries(op, p["dom"], entries, p["kmax"], p["full"])


def _decide(lower: Ref, upper: Ref, strict: bool) -> Optional[bool]:
    """True if lower violates upper, False if it surely does not, None if unsure."""
    if isinstance(lower, Fraction) and isinstance(upper, Fraction):
        return lower >= upper if strict else lower > upper
    (llo, lhi), (ulo, uhi) = _lo_hi(lower), _lo_hi(upper)
    if llo > uhi + TOL:
        return True
    if lhi < ulo - TOL:
        return False
    return None


def check_embed(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    obj = _json(stdout)
    if obj is None:
        return "bad json"
    obstructed = obj.get("status") == "obstructed"
    if code != (1 if obstructed else 0) or obj.get("status") not in ("obstructed", "no_obstruction"):
        return f"exit {code} with status {obj.get('status')}"
    lower, upper = ref_seq(p["inner"], p["kmax"]), ref_seq(p["outer"], p["kmax"])
    if lower is None or upper is None:
        return None
    verdicts = [_decide(lower[k], upper[k], p["mode"] == "strict" and k >= 1)
                for k in range(p["kmax"] + 1)]
    if not obstructed:
        return "missed obstruction" if True in verdicts else None
    k = obj.get("witness_k")
    if not isinstance(k, int) or not 0 <= k <= p["kmax"]:
        return f"bad witness {k}"
    if True in verdicts[:k] or verdicts[k] is False:
        return f"witness k={k} is not the first violation"
    for key, ref in (("lower", lower[k]), ("upper", upper[k])):
        try:
            if not matches(parse_value(obj.get(key, "")), ref):
                return f"{key} = {obj.get(key)}, reference {ref}"
        except (ValueError, ZeroDivisionError):
            return f"unparsable {key}"
    return None


def f_bound(a: Fraction, dmax: int) -> Fraction:
    ranks = [(d * d + 3 * d + 2) // 2 for d in range(1, dmax + 1)]
    values = nk_values(a, Fraction(1), ranks[-1])
    return max(values[r - 1] / d for d, r in enumerate(ranks, 1))


def g_bound(a: Fraction, dmax: int) -> Fraction:
    """max over d of min over m of (a*m + n)/d with (m+1)(n+1) >= need_d."""
    return max(polydisk_entry(a, Fraction(1), (d + 1) * (d + 2) // 2 - 1) / d
               for d in range(1, dmax + 1))


def check_bound(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    if code != 0:
        return f"exit {code}"
    ref = (f_bound if op.kind == "fbound" else g_bound)(p["a"], p["dmax"])
    if p["format"] == "json":
        obj = _json(stdout)
        want = {"a": op.argv[1], "dmax": p["dmax"], "bound": rat(ref)}
        return None if obj == want else f"got {stdout.strip()}, reference {rat(ref)}"
    return None if stdout == rat(ref) + "\n" else f"got {stdout.strip()}, reference {rat(ref)}"


def _tuples(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for d in range(cap + 1):
        for rest in _tuples(n - 1, cap):
            yield (d, *rest)


def check_pack(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    obj = _json(stdout)
    if obj is None:
        return "bad json"
    sizes = p["sizes"]
    want = []
    for d in range(1, p["dmax"] + 1):
        budget = d * d + 3 * d
        for mult in _tuples(len(sizes), d + 1):
            if sum(m * m + m for m in mult) <= budget:
                want.append((d, mult))
    got = []
    for ineq in obj.get("inequalities", []):
        mult, d = tuple(ineq["multipliers"]), ineq["bound"]
        lhs = sum((m * a for m, a in zip(mult, sizes)), Fraction(0))
        if ineq["lhs"] != rat(lhs) or ineq["satisfied"] != (lhs < d):
            return f"wrong inequality {mult} < {d}"
        got.append((d, mult))
    if sorted(got) != sorted(want):
        return "inequality family differs from enumeration"
    holds = all(i["satisfied"] for i in obj["inequalities"])
    if obj.get("all_hold") != holds or code != (0 if holds else 1) or \
            obj.get("status") != ("no_obstruction" if holds else "obstructed"):
        return f"exit {code} / status disagrees with the inequalities"
    return None


def biran_tuples(n: int, total: int, squares: int):
    if n == 0:
        if total == 0 and squares == 0:
            yield ()
        return
    # d^2 >= d for integers, and Cauchy-Schwarz: total^2 <= n * squares
    if total > squares or total * total > n * squares:
        return
    for d in range(min(total, math.isqrt(squares)) + 1):
        for rest in biran_tuples(n - 1, total - d, squares - d * d):
            yield (d, *rest)


def check_biran(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    obj = _json(stdout)
    if obj is None:
        return "bad json"
    sizes = p["sizes"]
    want, bound = "sufficient", None
    if sum(a * a for a in sizes) > 1:
        want = "fails_volume"
    else:
        for d in range(1, p["dmax"] + 1):
            if any(sum(m * a for m, a in zip(mult, sizes)) > d
                   for mult in biran_tuples(len(sizes), 3 * d - 1, d * d + 1)):
                want, bound = "fails_inequality", d
                break
    if obj.get("status") != want or code != (0 if want == "sufficient" else 1):
        return f"exit {code} status {obj.get('status')}, reference {want}"
    if bound is not None:
        mult = tuple(obj.get("multipliers", ()))
        if obj.get("bound") != bound or len(mult) != len(sizes) or \
                sum(mult) != 3 * bound - 1 or sum(m * m for m in mult) != bound * bound + 1 \
                or not sum(m * a for m, a in zip(mult, sizes)) > bound:
            return f"bad failing tuple {mult} for d={obj.get('bound')}"
    return None


def check_asym(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    if code != 0:
        return f"exit {code}"
    dom, kmax, stride = p["dom"], p["kmax"], p["stride"]
    ks = list(range(stride, kmax + 1, stride))
    if not ks or ks[-1] != kmax:
        ks.append(kmax)
    if p["format"] == "json":
        obj = _json(stdout)
        if obj is None:
            return "bad json"
        points = [(t["k"], t["c_k"], t["ratio"]) for t in obj["trace"]]
    else:
        lines = stdout.split("\n")
        if lines[0] != "k,c_k,ratio" or lines[-1]:
            return "bad csv"
        points = []
        for line in lines[1:-1]:
            k, c, r = line.split(",")
            points.append((int(k), c, float(r)))
    if [pt[0] for pt in points] != ks:
        return "sampled k differ from the stride"
    vol = volume(dom)
    rng = random.Random(" ".join(op.argv))
    picked = sorted({0, len(points) - 1, *(rng.randrange(len(points)) for _ in range(6))})
    refs = None if dom[0] in ("ball", "ellipsoid") else \
        ref_entries(dom, [points[i][0] for i in picked])
    for i in picked:
        k, text, ratio = points[i]
        got = parse_value(text)
        ok = rank_check(dom, k, got, False) if refs is None else matches(got, refs[k])
        if not ok:
            return f"c_{k} = {text} is wrong"
        want = float(got * got / (4 * k * vol))
        # csv prints 9 decimals; approximate c_k print 12, so their ratio is
        # only that close to what the CLI computed from the unrounded value
        exact = isinstance(got, Fraction) and isinstance(vol, Fraction)
        if abs(ratio - want) > (1e-12 * want if p["format"] == "json" and exact else 1e-9):
            return f"ratio at k={k} is {ratio}, reference {want}"
    return None


def check_qw(op: Op, code: int, stdout: str) -> Optional[str]:
    p = op.params
    obj = _json(stdout)
    if obj is None:
        return "bad json"
    dom = p["dom"]
    kmax = min(p["kmax"], TORIC_TRACE_KMAX) if dom[0] in ("l1", "euclid", "poly") else p["kmax"]
    holds = obj.get("status") == "holds_up_to"
    if obj.get("kmax") != kmax or obj.get("exploratory") != has_polydisk(dom) or \
            code != (0 if holds else 1):
        return f"exit {code} with header {stdout.strip()}"
    seq, vol = ref_seq(dom, kmax), volume(dom)
    if seq is None:
        return None
    # c_k < sqrt(2 k vol_Y) with vol_Y = 2 vol, squared: c_k^2 < 4 k vol
    verdicts = []
    for k in range(1, kmax + 1):
        if isinstance(seq[k], Fraction) and isinstance(vol, Fraction):
            verdicts.append(seq[k] * seq[k] >= 4 * k * vol)
        else:
            lo, hi = _lo_hi(seq[k])
            bound = math.sqrt(4 * k * float(vol))
            verdicts.append(True if lo > bound + TOL else False if hi < bound - TOL else None)
    if holds:
        return "missed violation" if True in verdicts else None
    k = obj.get("k")
    if not isinstance(k, int) or not 1 <= k <= kmax or True in verdicts[:k - 1] \
            or verdicts[k - 1] is False:
        return f"violation at k={k} is not the first"
    return None


CHECKS = {
    "capacities": check_capacities,
    "embed": check_embed,
    "fbound": check_bound,
    "gbound": check_bound,
    "pack": check_pack,
    "biran": check_biran,
    "asym": check_asym,
    "qw": check_qw,
}


def check(op: Op, code: int, stdout: str) -> Optional[str]:
    """None if the op's exit code and stdout are right, else the reason."""
    if code not in (0, 1):
        return f"exit {code}"
    try:
        return CHECKS[op.argv[0]](op, code, stdout)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
