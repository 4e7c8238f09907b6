"""Command-line front end: ``radsym``.

Subcommands
    sum      classical Dedekind sum s(a, c)
    symbol   Dedekind / Rademacher symbols on modular groups
    period   periods of canonical cuspidal differentials
    torsion  Manin-Drinfeld torsion certificates for cuspidal divisors
    cusps    cusp representatives, widths, stabilizers
    cosets   coset representatives of a congruence subgroup in SL2(Z)
    verify   built-in consistency suites

Exit codes: 0 success, 1 domain error; argparse exits 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from math import gcd

from .dedekind import (
    cocycle_defect,
    dedekind_sum,
    phi_classical,
    psi_classical,
)
from .modgroup import (
    Cusp,
    Family,
    GroupElement,
    GroupId,
    S,
    T,
    classify,
    cosets,
    cusp_stabilizer_generator,
    cusps,
    parse_matrix,
    schreier_generators,
)
from .periods import (
    Divisor,
    divisor_period,
    period_numeric,
    torsion_certificate,
    x0_period_exact,
)
from .symbols import (
    phi_general,
    psi_general,
)

def _group_from_args(args) -> GroupId:
    fam, level = args.group, args.level
    if fam == "sl2z" and level is not None:
        raise ValueError("--group sl2z takes no --level")
    if fam != "sl2z" and level is None:
        raise ValueError(f"group family '{fam}' needs --level")
    return GroupId(Family(fam), 1 if level is None else level)


def _parse_divisor(text: str, G: GroupId) -> Divisor:
    coeffs = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        cu, _, mult = part.rpartition(":")
        if not cu:
            raise ValueError(f"divisor term '{part}' is not cusp:multiplicity")
        try:
            coeffs[cu] = coeffs.get(cu, 0) + int(mult)
        except ValueError:
            raise ValueError(f"divisor term '{part}' has a multiplicity that is "
                             f"not an integer") from None
    return Divisor.from_dict(G, coeffs)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sum(args) -> int:
    v = dedekind_sum(args.a, args.c)
    _emit(args, {"value": str(v), "a": args.a, "c": args.c}, str(v))
    return 0


_METHOD_NAMES = {
    Family.SL2Z: "classical/exact",
    Family.GAMMA_N: "principal-level/exact",
    Family.GAMMA0_N: "hecke-level/exact",
    Family.GAMMA1_N: "hecke-level-1/exact",
    Family.GAMMA0N_PLUS: "fricke-extended/exact",
}


def _cmd_symbol(args) -> int:
    G = _group_from_args(args)
    cusp = Cusp.from_str(args.cusp)
    matrices = []
    if args.matrix:
        matrices.append(parse_matrix(args.matrix))
    if args.input:
        with open(args.input) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    matrices.append(parse_matrix(line))
    if not matrices:
        raise ValueError("no matrix given (--matrix or --input)")

    if args.csv and args.json:
        raise ValueError("--csv and --json are two output formats; give one")
    fn = phi_general if args.phi else psi_general
    rows = [(g, fn(G, cusp, g)) for g in matrices]
    method = _METHOD_NAMES[G.family]
    if args.csv:
        print("\n".join(["matrix,value,method"] + [
            f"\"{g}\",{v},{method}" for g, v in rows]))
        return 0
    for g, v in rows:
        payload = {
            "group": str(G),
            "cusp": str(cusp),
            "matrix": str(g),
            "symbol": "phi" if args.phi else "psi",
            "value": str(v),
            "method": method,
            "trace_class": str(classify(g)),
        }
        _emit(args, payload, str(v))
    return 0


def _cmd_period(args) -> int:
    g = parse_matrix(args.matrix)
    if args.numeric and (args.divisor is not None or args.level is not None
                         or args.group is not None):
        raise ValueError("--numeric integrates E2* on SL2(Z) and takes "
                         "no --divisor, --level or --group")
    if args.tol is not None and not args.numeric:
        raise ValueError("--tol is the tolerance of --numeric; the exact "
                         "routes take none")
    if args.group is None:           # the exact routes default to Gamma0(N)
        args.group = "gamma0"
    if args.divisor is not None:
        G = _group_from_args(args)
        D = _parse_divisor(args.divisor, G)
        v = divisor_period(D, g)
        _emit(args, {"group": str(G), "divisor": str(D), "matrix": str(g),
                     "value": str(v)}, str(v))
        return 0
    if args.numeric:
        v = period_numeric(g, 1e-8 if args.tol is None else args.tol)
        _emit(args, {"matrix": str(g), "value": {"approx": v.approx, "err": v.error},
                     "method": "eisenstein-quadrature"},
              f"{v.approx:.12g}")
        return 0
    if args.level is not None:
        if args.group != "gamma0":
            raise ValueError(f"--level without --divisor is the X0(N) period; "
                             f"--group {args.group} needs --divisor")
        v = x0_period_exact(args.level, g)
        _emit(args, {"matrix": str(g), "level": args.level,
                     "value": str(v), "method": "x0-exact"}, str(v))
        return 0
    raise ValueError("period needs --numeric, --level N, or --divisor")


def _cmd_torsion(args) -> int:
    G = _group_from_args(args)
    D = _parse_divisor(args.divisor, G)
    cert = torsion_certificate(G, D)
    payload = {
        "group": str(G),
        "divisor": str(D),
        "order": cert.order,
        "status": "exact",
        "generators": [str(g) for g in cert.generators],
        "periods": [str(p.value) for p in cert.periods],
    }
    _emit(args, payload, str(cert))
    return 0


def _cmd_cusps(args) -> int:
    G = _group_from_args(args)
    out = [{"cusp": str(cu), "width": str(w),
            "stabilizer": str(cusp_stabilizer_generator(G, cu))}
           for cu, w in cusps(G)]
    _emit(args, {"group": str(G), "cusps": out}, "\n".join(
        f"{row['cusp']}\twidth {row['width']}\tstabilizer {row['stabilizer']}"
        for row in out))
    return 0


def _cmd_cosets(args) -> int:
    G = _group_from_args(args)
    reps = [str(r) for r in cosets(G, GroupId.sl2z())]
    _emit(args, {"group": str(G), "index": len(reps), "representatives": reps},
          "\n".join([f"index {len(reps)}", *reps]))
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _rand_sl2z(rng, steps=8) -> GroupElement:
    g = GroupElement.identity()
    for _ in range(rng.randint(2, steps)):
        g = g * T ** rng.randint(-3, 3) * S
    return g


def _rand_subgroup(rng, G: GroupId, steps=6) -> GroupElement:
    n = G.level
    A = T ** n
    B = GroupElement(1, 0, n, 1)
    g = GroupElement.identity()
    for _ in range(rng.randint(2, steps)):
        g = g * (A if rng.random() < 0.5 else B) ** (rng.randint(-2, 2) or 1)
    return g


def _suite_reciprocity(args):
    failures = []
    for c in range(1, args.count + 1):
        for a in range(1, c):
            if gcd(a, c) != 1:
                continue
            lhs = dedekind_sum(a, c) + dedekind_sum(c, a)
            rhs = Fraction(-1, 4) + (Fraction(a, c) + Fraction(c, a)
                                     + Fraction(1, a * c)) / 12
            if lhs != rhs:
                failures.append((a, c))
    return failures


def _suite_cocycle(args):
    rng = random.Random(args.seed)
    G = GroupId.sl2z()
    inf = Cusp.infinity()
    failures = []
    for _ in range(args.count):
        g1, g2 = _rand_sl2z(rng), _rand_sl2z(rng)
        d = cocycle_defect(G, inf, g1, g2, phi_classical(g1),
                           phi_classical(g2), phi_classical(g1 * g2))
        if d != 0:
            failures.append((g1, g2, d))
    return failures


def _suite_cusp_sum(args):
    """sum_b w_b Psi^G_b(g) = psi_classical(g) over the cusp classes b of G
    and their widths w_b, for w in Gamma(N): on w in G = Gamma(N), w T in
    Gamma1(N), and w tau_u in Gamma0(N), tau_u = [[u, (uv - 1)/N], [N, v]]
    with u a unit and v = u^-1 mod N, whose top-left entry u makes the lift
    route at a split cusp take a power g^k with k > 1."""
    rng = random.Random(args.seed)
    n = 2 if args.level is None else args.level
    groups = (GroupId.gamma(n), GroupId.gamma1(n), GroupId.gamma0(n))
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    failures = []
    for _ in range(max(5, args.count // 50)):
        w = _rand_subgroup(rng, groups[0])
        u = rng.choice(units)
        v = pow(u, -1, n)
        tau = GroupElement(u, (u * v - 1) // n, n, v)
        for G, g in zip(groups, (w, w * T, w * tau)):
            total = sum(width * psi_general(G, cu, g).rational
                        for cu, width in cusps(G))
            target = psi_classical(g)
            if total != target:
                failures.append((str(G), str(g), str(total), str(target)))
    return failures


def _suite_lemma(args):
    rng = random.Random(args.seed)
    failures = []
    checked = 0
    while checked < max(10, args.count // 100):
        g = _rand_sl2z(rng)
        if abs(g.trace) <= 2 or g.c == 0:
            continue
        checked += 1
        if g.trace < 0:
            g = -g
        # period_numeric raises when its error exceeds tol; the error must
        # also cover the true distance from Psi
        p = period_numeric(g, args.tol)
        psi = psi_classical(g)
        if abs(Fraction(p.approx) - psi) > p.error:
            failures.append((g, p.approx, p.error, psi))
    return failures


def _suite_oracle_consistency(args):
    """x0_period_exact(N, g) against divisor_period(D_N, g) on every
    Schreier generator of Gamma0(N), with D_N the divisor of
    E2(z) - N E2(Nz): multiplicity (N - d^2)/gcd(d^2, N) at each cusp, d the
    gcd of its denominator with N (d = N at infinity)."""
    failures = []
    levels = [2, 3, 5, 7, 11] if args.level is None else [args.level]
    for n in levels:
        G = GroupId.gamma0(n)
        D = Divisor.from_dict(G, {cu: (n - d * d) // gcd(d * d, n)
                                  for cu, _w in cusps(G) for d in [gcd(cu.q, n)]})
        for g in schreier_generators(G):
            lhs = divisor_period(D, g).rational
            rhs = x0_period_exact(n, g)
            if lhs != rhs:
                failures.append((n, g, lhs, rhs))
    return failures


_SUITES = {
    "reciprocity": _suite_reciprocity,
    "cocycle": _suite_cocycle,
    "cusp-sum": _suite_cusp_sum,
    "lemma": _suite_lemma,
    "oracle-consistency": _suite_oracle_consistency,
}
# the flags each suite reads; a flag that its suite never reads is refused
_SUITE_FLAGS = {
    "reciprocity": ("count",),
    "cocycle": ("seed", "count"),
    "cusp-sum": ("level", "seed", "count"),
    "lemma": ("tol", "seed", "count"),
    "oracle-consistency": ("level",),
}
# no --level means the suite's own levels
_VERIFY_DEFAULTS = {"level": None, "tol": 1e-8, "seed": 20260101, "count": 500}


def _cmd_verify(args) -> int:
    for flag, default in _VERIFY_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag not in _SUITE_FLAGS[args.suite]:
            raise ValueError(f"the {args.suite} suite takes no --{flag}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    failures = _SUITES[args.suite](args)
    status = "PASS" if not failures else "FAIL"
    shown = [repr(f) for f in failures[:20]]
    _emit(args, {"suite": args.suite, "status": status, "failures": shown},
          "\n".join([f"{args.suite}: {status}"]
                    + [f"  counterexample: {f}" for f in shown]))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="radsym",
        description="Dedekind sums, Rademacher symbols on modular groups, "
                    "cuspidal periods and torsion certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    groups = sorted(f.value for f in Family)

    def add_group_opts(sp, default_group=None):
        sp.add_argument("--group", default=default_group,
                        choices=groups,
                        required=default_group is None)
        sp.add_argument("--level", type=int, default=None)

    def add_common(sp):
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("sum", help="classical Dedekind sum s(a, c)")
    sp.add_argument("a", type=int)
    sp.add_argument("c", type=int)
    add_common(sp)
    sp.set_defaults(fn=_cmd_sum)

    sp = sub.add_parser("symbol", help="Rademacher/Dedekind symbol of a matrix")
    add_group_opts(sp)
    sp.add_argument("--cusp", default="inf")
    sp.add_argument("--matrix", default=None, help='entries "a,b,c,d[;e]"')
    sp.add_argument("--input", default=None, help="file with one matrix per line")
    sp.add_argument("--phi", action="store_true",
                    help="Dedekind symbol Phi instead of Rademacher Psi")
    sp.add_argument("--csv", action="store_true")
    add_common(sp)
    sp.set_defaults(fn=_cmd_symbol)

    sp = sub.add_parser("period", help="periods of cuspidal differentials")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--numeric", action="store_true",
                    help="Eisenstein quadrature along the geodesic axis")
    sp.add_argument("--tol", type=float, default=None,
                    help="--numeric only (default 1e-8)")
    sp.add_argument("--group", default=None, choices=groups,
                    help="group of --divisor or --level (default gamma0)")
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--divisor", default=None,
                    help='degree-zero divisor "cusp:mult,..."')
    add_common(sp)
    sp.set_defaults(fn=_cmd_period)

    sp = sub.add_parser("torsion", help="Manin-Drinfeld torsion certificate")
    add_group_opts(sp, default_group="gamma0")
    sp.add_argument("--divisor", required=True,
                    help='degree-zero divisor "cusp:mult,...", e.g. "0:-1,inf:1"')
    add_common(sp)
    sp.set_defaults(fn=_cmd_torsion)

    sp = sub.add_parser("cusps", help="cusp representatives of a group")
    add_group_opts(sp)
    add_common(sp)
    sp.set_defaults(fn=_cmd_cusps)

    sp = sub.add_parser("cosets", help="coset representatives in SL2(Z)")
    add_group_opts(sp)
    add_common(sp)
    sp.set_defaults(fn=_cmd_cosets)

    sp = sub.add_parser("verify", help="run a built-in consistency suite")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.add_argument("--level", type=int, default=None,
                    help="cusp-sum and oracle-consistency only")
    sp.add_argument("--tol", type=float, default=None,
                    help="lemma only (default 1e-8)")
    sp.add_argument("--seed", type=int, default=None,
                    help="cocycle, cusp-sum and lemma (default 20260101)")
    sp.add_argument("--count", type=int, default=None,
                    help="reciprocity checks every c <= count, cocycle runs count "
                         "trials, cusp-sum max(5, count // 50) and lemma "
                         "max(10, count // 100) (default 500)")
    add_common(sp)
    sp.set_defaults(fn=_cmd_verify)

    return p


# the flags whose values may start with "-" and a digit
_VALUE_FLAGS = ("--matrix", "--cusp", "--divisor")


def run(argv=None) -> int:
    # argparse takes the "-5,2,-3,1" of "--matrix -5,2,-3,1" for an unknown
    # option, but reads "--matrix=-5,2,-3,1"; no option starts with "-" and a
    # digit.  Abbreviations such as "--mat" are joined too, and an ambiguous
    # one such as "--c" of symbol (--cusp or --csv) fails as "--c=-1" does
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        flag, tok = argv[i - 1], argv[i]
        if (len(flag) > 2 and re.match(r"-\d", tok)
                and any(f.startswith(flag) for f in _VALUE_FLAGS)):
            argv[i - 1:i + 1] = [f"{flag}={tok}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
