"""Output checks for the radsym benchmark.

Independent oracles where one exists, otherwise the reference values in
reference.json (rationals and orders only, never kind labels).  Each op gets
a status: "ok", "wrong" (a value that fails its check) or "error" (no value:
it raised, or its CLI batch exited without emitting its row).  A failed op
is "known" when the seed commit failed on the same input.
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction

from inputs import PERIOD_TOL, divisors, squarefree

# Gamma(N) rows checked by the coset-sum identity, per group and run, drawn
# from rows with |c| <= ORACLE_MAX_C so that the SL2(Z) lift stays cheap
ORACLE_ROWS = 2
ORACLE_MAX_C = 1000


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _solve(A, t):
    """Solve A x = t over Q by Gauss-Jordan elimination."""
    n = len(A)
    M = [list(row) + [t[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def eta_quotient_order(n: int, d: int) -> int:
    """Order of the class of (1/d) - (inf) on X0(N), N squarefree, as the
    least k for which k((1/d) - (inf)) is the divisor of an eta quotient
    prod_e eta(e z)^r_e (Takagi: for squarefree N these are all the
    cuspidal units).  Ligozat's formula gives the order at the cusp 1/c as
    (N/24) sum_e gcd(c, e)^2 r_e / (c e); the quotient is a function on
    X0(N) when sum e r_e and sum (N/e) r_e are 0 mod 24 and prod e^r_e is a
    square.  Shares no code with radsym."""
    ds = divisors(n)
    A = [[Fraction(n * math.gcd(c, e) ** 2, 24 * c * e) for e in ds] for c in ds]
    r1 = _solve(A, [Fraction((c == d) - (c == n)) for c in ds])
    k0 = math.lcm(*(x.denominator for x in r1))
    primes = [p for p in ds if _is_prime(p)]
    # the congruence and square conditions repeat with period dividing 48
    for m in range(1, 49):
        r = [int(x * k0 * m) for x in r1]
        if sum(e * x for e, x in zip(ds, r)) % 24:
            continue
        if sum((n // e) * x for e, x in zip(ds, r)) % 24:
            continue
        if any(sum(x for e, x in zip(ds, r) if e % p == 0) % 2 for p in primes):
            continue
        return k0 * m
    raise ArithmeticError(f"no eta quotient for level {n}, cusp 1/{d}")


class Checker:
    def __init__(self, radsym, ref: dict, seed: int):
        self.radsym = radsym
        self.ref = ref
        self.rng = random.Random(f"checks:{seed}")
        self.unchecked = 0

    # -- certificates ---------------------------------------------------------

    def cert(self, workload: str, op: dict) -> dict:
        inp = op["input"]
        key = f"{inp['family']}:{inp['level']}:{inp['cusp']}"
        expected = self.ref[workload].get(key)
        known = key in self.ref[workload] and expected is None
        if op["error"] is not None:
            return {"status": "error", "cause": op["error"], "known": known}
        order = op["result"]["order"]
        problems = []
        if expected is not None and order != expected:
            problems.append(f"order {order} != reference {expected}")
        n = inp["level"]
        if inp["family"] == "gamma0" and squarefree(n):
            d = 1 if inp["cusp"] == "0" else Fraction(inp["cusp"]).denominator
            oracle = eta_quotient_order(n, d)
            if order != oracle:
                problems.append(f"order {order} != eta-quotient order {oracle}")
        # for prime N, (N-1)((0) - (inf)) is the divisor of E2(z) - N E2(Nz);
        # for composite N that form has poles at the other cusps too
        if inp["family"] == "gamma0" and inp["cusp"] == "0" and _is_prime(n):
            oracle = self._x0_order(n, op["result"]["generators"])
            if order != oracle:
                problems.append(f"order {order} != x0_period_exact order {oracle}")
            if order != Fraction(n - 1, 12).numerator:
                problems.append(f"order {order} != Ogg's numerator((p-1)/12)")
        if expected is None and not (inp["family"] == "gamma0" and squarefree(n)):
            self.unchecked += 1
        if problems:
            return {"status": "wrong", "cause": "; ".join(problems), "known": known}
        return {"status": "ok"}

    def _x0_order(self, n: int, generators) -> int:
        """lcm of the denominators of x0_period_exact(N, g) / (N - 1): the
        classical Dedekind-sum route to the order of (0) - (inf)."""
        order = 1
        for text in generators:
            g = self.radsym.parse_matrix(text)
            v = self.radsym.x0_period_exact(n, g) / (n - 1)
            order = math.lcm(order, v.denominator)
        return order

    # -- eisenstein periods ---------------------------------------------------

    def period(self, op: dict) -> dict:
        if op["error"] is not None:
            return {"status": "error", "cause": op["error"], "known": False}
        g = self.radsym.parse_matrix(op["input"]["matrix"])
        psi = self.radsym.psi_classical(g)
        diff = abs(op["result"]["approx"] - float(psi))
        if not diff <= PERIOD_TOL:
            return {"status": "wrong", "known": False,
                    "cause": f"|period - psi_classical| = {diff:.3g} > {PERIOD_TOL}"}
        return {"status": "ok"}

    # -- CLI symbol batches ---------------------------------------------------

    def rows(self, ops: list[dict]) -> list[dict]:
        pools = self.ref["symbol_batch"]["groups"]
        values = {}
        for name, g in pools.items():
            for kind in ("slots", "deep"):
                for slot in g[kind]:
                    for text, value, _kind in slot:
                        values[(name, text)] = value
        oracle_rows = self._pick_oracle_rows(ops, pools)
        return [self._row(i, op, values, pools, i in oracle_rows)
                for i, op in enumerate(ops)]

    def _pick_oracle_rows(self, ops, pools) -> set:
        picked = set()
        for name in sorted(pools):
            if pools[name]["family"] != "gamma":
                continue
            cands = [i for i, op in enumerate(ops)
                     if op["input"]["group"] == name and not op["input"]["deep"]
                     and abs(self.radsym.parse_matrix(op["input"]["matrix"]).c)
                     <= ORACLE_MAX_C]
            picked.update(self.rng.sample(cands, min(ORACLE_ROWS, len(cands))))
        return picked

    def _row(self, i, op, values, pools, oracle: bool) -> dict:
        inp = op["input"]
        expected = values.get((inp["group"], inp["matrix"]))
        known = (inp["group"], inp["matrix"]) in values and expected is None
        res = op["result"]
        if op["error"] is not None:
            return {"status": "error", "cause": op["error"], "known": known}
        if res["row"] is None:
            return {"status": "error", "known": known,
                    "cause": f"batch exit {res['exit']}: {res['stderr']}"}
        matrix, value, method = next(csv.reader([res["row"]]))
        kind = method.rpartition("/")[2]
        if matrix != inp["matrix"]:
            return {"status": "wrong", "known": known, "kind": kind,
                    "cause": f"row for {matrix}, expected {inp['matrix']}"}
        if value.startswith("~"):
            got = None
        else:
            got = Fraction(value)
        problems = []
        if expected is not None and got != Fraction(expected):
            problems.append(f"value {value} != reference {expected}")
        if expected is None:
            self.unchecked += 1
        if oracle and got is not None:
            problem = self._coset_identity(pools[inp["group"]]["level"],
                                           inp["matrix"], got)
            if problem:
                problems.append(problem)
        if problems:
            return {"status": "wrong", "cause": "; ".join(problems),
                    "known": known, "kind": kind}
        return {"status": "ok", "kind": kind}

    def _coset_identity(self, n: int, text: str, value: Fraction):
        """lift_coset_sum over Gamma(N)\\SL2(Z) equals psi_classical; the
        identity coset contributes the row's own value."""
        rs = self.radsym
        g = rs.parse_matrix(text)
        G = rs.GroupId.gamma(n)
        inf = rs.Cusp.infinity()

        def engine(x):
            if x == g:
                return rs.SymbolValue.exact(value)
            return rs.psi_general(G, inf, x)

        try:
            lifted = rs.lift_coset_sum(G, rs.GroupId.sl2z(), engine, g)
        except ValueError as exc:
            return f"coset-sum oracle raised ValueError: {exc}"
        target = rs.psi_classical(g)
        if not lifted.is_rational or lifted.rational != target:
            return f"coset sum {lifted} != psi_classical {target}"
        return None
