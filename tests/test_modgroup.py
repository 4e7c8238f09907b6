import collections
import itertools
import random
import re
from fractions import Fraction
from math import gcd, prod

import pytest

from radsym import modgroup, symbols
from radsym.modgroup import (
    Cusp,
    Family,
    GroupElement,
    GroupId,
    I2,
    Motion,
    S,
    T,
    _coset_invariant,
    _cusp_key,
    atkin_lehner,
    atkin_lehner_exponents,
    classify,
    coset_table,
    cosets,
    cusp_class_index,
    cusp_equivalent,
    cusp_stabilizer_generator,
    cusp_width,
    cusps,
    member,
    parse_matrix,
    schreier_generators,
)
from radsym.periods import Divisor
from radsym.symbols import psi_general

from conftest import (
    SearchCosetTable,
    coset_action,
    cusp_equivalent_search,
    cusp_t_orbits,
    cusp_width_search,
    gamma0_key_unit_loop,
    level_cosets,
    member_by_congruences,
    parabolic_power,
    psi_peel_lift_cocycle,
    random_in_group,
    random_principal,
    random_sl2z,
    schreier_generators_search,
)


# -- elements ---------------------------------------------------------------


def test_parse_matrix():
    g = parse_matrix("1,2,3,7")
    assert g.entries() == (1, 2, 3, 7)
    w = parse_matrix("0,-1,11,0;11")
    assert w.e == 11
    with pytest.raises(ValueError):
        parse_matrix("1,2,3")
    # a non-integer entry or scale is named, not reported through int()
    for text in ("1,x,0,1", "1,2,0,1;y", "1,2,0,1;", "1.5,2,0,1"):
        with pytest.raises(ValueError, match=r"is not an integer matrix") as exc:
            parse_matrix(text)
        assert repr(text) in str(exc.value)


def test_group_law():
    assert T * S == GroupElement(1, -1, 1, 0)
    g = GroupElement(3, 2, 4, 3)
    assert (g * g.inverse()).canonical() == I2
    assert g ** 3 == g * g * g
    assert g ** -2 == (g.inverse()) ** 2
    assert g.conjugate_by(S) == S * g * S.inverse()


def test_projective_canonical():
    g = GroupElement(3, 2, 4, 3)
    assert (-g).canonical() == g.canonical()


def test_determinant_check():
    with pytest.raises(ValueError):
        GroupElement(1, 0, 0, 2)


def test_classify():
    assert classify(I2).tag is Motion.IDENTITY
    assert classify(-I2).tag is Motion.IDENTITY
    assert classify(S).tag is Motion.ELLIPTIC
    assert classify(S).order == 2
    assert classify(S * T).tag is Motion.ELLIPTIC
    assert classify(S * T).order == 3
    assert classify(T).tag is Motion.PARABOLIC
    assert classify(GroupElement(2, 1, 1, 1)).tag is Motion.HYPERBOLIC
    # Atkin-Lehner elements: t^2/e = 2 and 3 give orders 4 and 6
    assert classify(parse_matrix("2,-1,2,0;2")).order == 4
    assert classify(parse_matrix("3,-1,3,0;3")).order == 6
    # t^2/e = 4/3 < 4: a rotation of infinite order
    with pytest.raises(ValueError):
        classify(parse_matrix("1,1,-2,1;3"))


def test_word_decompose_roundtrip(rng):
    for _ in range(100):
        g = random_sl2z(rng)
        w = word_decompose(g)
        assert evaluate_word(w).canonical() == g.canonical()


# -- membership -------------------------------------------------------------


def test_member():
    assert member(GroupElement(3, 2, 4, 3), GroupId.gamma(2))
    assert not member(GroupElement(2, 1, 1, 1), GroupId.gamma(2))
    assert member(GroupElement(1, 1, 11, 12), GroupId.gamma0(11))
    assert not member(GroupElement(2, 1, 1, 1), GroupId.gamma0(11))
    assert member(GroupElement(12, 1, 11, 1), GroupId.gamma1(11))
    assert not member(GroupElement(2, 1, 11, 6), GroupId.gamma1(11))
    w = atkin_lehner(11, 11)
    assert member(w, GroupId.gamma0_plus(11))
    assert not member(w, GroupId.gamma0(11))


def test_psl2z_index():
    assert GroupId.sl2z().psl2z_index() == 1
    assert GroupId.gamma(2).psl2z_index() == 6
    assert GroupId.gamma(5).psl2z_index() == 60
    assert GroupId.gamma0(11).psl2z_index() == 12
    assert GroupId.gamma1(5).psl2z_index() == 12
    assert GroupId.gamma0_plus(11).psl2z_index() == 6


# -- cusps ------------------------------------------------------------------


def test_cusp_parsing_and_str():
    assert Cusp.from_str("inf") == Cusp.infinity()
    assert Cusp.from_str("3/6") == Cusp(1, 2)
    assert Cusp.from_str("0") == Cusp(0, 1)
    assert str(Cusp(1, 0)) == "inf"
    assert str(Cusp(1, 2)) == "1/2"
    assert Cusp(-5, 0) == Cusp.infinity()
    with pytest.raises(ValueError):
        Cusp.from_str("0/0")
    for text in ("abc", "1/x", "1/", "/2", "1/2/3"):
        with pytest.raises(ValueError, match=f"^'{text}' is not a cusp$"):
            Cusp.from_str(text)


def test_cusp_base_matrix():
    for cu in [Cusp(0, 1), Cusp(1, 2), Cusp(3, 7), Cusp(1, 0)]:
        b = cu.base_matrix()
        assert b.e == 1
        assert b.apply_cusp(Cusp.infinity()) == cu


def test_cusp_counts():
    assert len(cusps(GroupId.sl2z())) == 1
    assert len(cusps(GroupId.gamma(2))) == 3
    assert len(cusps(GroupId.gamma(4))) == 6
    assert len(cusps(GroupId.gamma0(11))) == 2
    assert len(cusps(GroupId.gamma0(12))) == 6
    assert len(cusps(GroupId.gamma1(5))) == 4
    assert len(cusps(GroupId.gamma0_plus(11))) == 1


def test_cusp_widths_sum_to_index():
    for G in [GroupId.gamma(3), GroupId.gamma0(11), GroupId.gamma0(12),
              GroupId.gamma1(5)]:
        total = sum(w for _c, w in cusps(G))
        assert total == G.psl2z_index()


def test_gamma0_11_cusp_widths():
    G = GroupId.gamma0(11)
    assert cusp_width(G, Cusp.infinity()) == 1
    assert cusp_width(G, Cusp(0, 1)) == 11


def test_cusp_equivalence():
    G = GroupId.gamma0(11)
    assert cusp_equivalent(G, Cusp.infinity(), Cusp(0, 1)) is False
    assert cusp_equivalent(G, Cusp(1, 11), Cusp.infinity()) is True
    # under the Fricke involution 0 and infinity merge
    Gp = GroupId.gamma0_plus(11)
    assert cusp_equivalent(Gp, Cusp.infinity(), Cusp(0, 1)) is True


# every cusp p/q with 0 <= p < q <= 30, and infinity
ORACLE_CUSPS = [Cusp(1, 0)] + [Cusp(p, q) for q in range(1, 31)
                               for p in range(q) if gcd(p, q) == 1]


def _squarefree(n):
    return all(n % (p * p) for p in range(2, n))


CUSP_ORACLE_GROUPS = ([GroupId.gamma0(n) for n in range(1, 41)]
                      + [GroupId.gamma1(n) for n in range(1, 41)]
                      + [GroupId.gamma(n) for n in range(1, 13)]
                      + [GroupId.gamma0_plus(n) for n in range(1, 41)
                         if _squarefree(n)])


@pytest.mark.parametrize("G", CUSP_ORACLE_GROUPS, ids=str)
def test_cusp_structure_matches_search(G):
    # class, width and equivalence agree with the k- and w-searches
    reps = [c for c, _w in cusps(G)]
    for i, r in enumerate(reps):
        for r2 in reps[i + 1:]:
            assert cusp_equivalent_search(G, r, r2) is None
    for c in ORACLE_CUSPS:
        i = cusp_class_index(G, c)
        assert cusp_equivalent_search(G, c, reps[i]) is not None
        assert cusp_width(G, c) == cusp_width_search(G, c)
        for j, r in enumerate(reps):
            assert cusp_equivalent(G, c, r) == (i == j)
            assert cusp_equivalent(G, r, c) == (i == j)


ORBIT_ORACLE_GROUPS = ([GroupId.gamma0(n) for n in range(1, 101)]
                       + [GroupId.gamma1(n) for n in range(1, 101)]
                       + [GroupId.gamma(n) for n in range(1, 25)])


@pytest.mark.parametrize("G", ORBIT_ORACLE_GROUPS, ids=str)
def test_cusp_classes_match_t_orbits(G):
    # the keys split the cusps r(inf), r over the coset representatives, as
    # the T-orbits do, and each width is the length of the cusp's orbit
    tab, index, orbit, lengths = cusp_t_orbits(G)
    reps = cusps(G)
    assert len(reps) == len(lengths)
    class_of_orbit = {}
    pairs = {(r.apply_cusp(Cusp.infinity()), o) for r, o in zip(tab.reps, orbit)}
    for c, o in pairs:
        i = cusp_class_index(G, c)
        assert class_of_orbit.setdefault(o, i) == i
        assert cusp_width(G, c) == lengths[o]
    assert sorted(class_of_orbit.values()) == list(range(len(reps)))
    for i, (c, w) in enumerate(reps):
        o = orbit[index[_coset_invariant(G, c.base_matrix())]]
        assert class_of_orbit[o] == i and w == lengths[o]


def test_cusp_questions_build_no_coset_table(coset_table_reads):
    modgroup.cusps.cache_clear()
    modgroup._class_indices.cache_clear()
    G = GroupId.gamma(36)
    assert len(cusps(G)) == 432
    assert all(w == 36 for _c, w in cusps(G))
    assert cusp_class_index(G, Cusp(37, 72)) == cusp_class_index(G, Cusp(1, 0))
    G = GroupId.gamma0(420)
    assert cusp_width(G, Cusp(1, 2)) == 105
    assert cusp_width(G, Cusp(1, 6)) == 35
    assert cusp_equivalent(G, Cusp(1, 3), Cusp(1, 9)) is True
    assert cusp_equivalent(G, Cusp(1, 2), Cusp(1, 4)) is False
    assert psi_general(G, Cusp.infinity(), T ** 3).rational == 3
    G = GroupId.gamma1(4)
    assert cusp_width(G, Cusp(1, 2)) == 1
    assert cusp_equivalent(G, Cusp(1, 2), Cusp(-1, 2)) is True
    assert cusp_equivalent(G, Cusp(1, 2), Cusp(0, 1)) is False
    G = GroupId.gamma0(30)
    D = Divisor.from_dict(G, {"1/10": 1, "-3/20": 1, "inf": -2})
    assert str(D) == "-2(inf) +2(1/10)"
    assert coset_table_reads == []
    modgroup.coset_table(GroupId.gamma0(11))
    assert coset_table_reads == [GroupId.gamma0(11)]


def test_cusp_stabilizer_generator():
    G = GroupId.gamma0(11)
    assert cusp_stabilizer_generator(G, Cusp.infinity()) == T
    gen = cusp_stabilizer_generator(G, Cusp(0, 1))
    assert classify(gen).tag is Motion.PARABOLIC
    assert member(gen, G)
    cu, k = parabolic_power(G, gen ** 3)
    assert cu == Cusp(0, 1) and k == 3


# -- cosets and generators --------------------------------------------------


def test_coset_counts():
    assert len(cosets(GroupId.gamma(2), GroupId.sl2z())) == 6
    assert len(cosets(GroupId.gamma0(11), GroupId.sl2z())) == 12
    assert len(level_cosets(GroupId.gamma(4), GroupId.gamma0(4))) == \
        GroupId.gamma(4).psl2z_index() // GroupId.gamma0(4).psl2z_index()
    with pytest.raises(ValueError):
        cosets(GroupId.gamma0(11), GroupId.gamma0_plus(11))


def test_cosets_are_distinct():
    G1 = GroupId.gamma(3)
    reps = cosets(G1, GroupId.sl2z())
    for i, r in enumerate(reps):
        for sdx in range(i + 1, len(reps)):
            assert not member(r * reps[sdx].inverse(), G1)


@pytest.mark.parametrize("inner, outer", [
    (GroupId.gamma, GroupId.gamma1),
    (GroupId.gamma, GroupId.gamma0),
    (GroupId.gamma1, GroupId.gamma0),
], ids=["gamma-gamma1", "gamma-gamma0", "gamma1-gamma0"])
def test_level_cosets(inner, outer):
    # the test oracle's representatives, read off mod N: in G, one per
    # coset of G1; radsym enumerates none of these quotients, and the lift
    # route's units loop is checked against the Gamma1(N) <= Gamma0(N) one
    for N in range(1, 31):
        G1, G = inner(N), outer(N)
        reps = level_cosets(G1, G)
        assert len(reps) == G1.psl2z_index() / G.psl2z_index()
        for i, r in enumerate(reps):
            assert member(r, G)
            for sdx in range(i + 1, len(reps)):
                assert not member(r * reps[sdx].inverse(), G1)


TABLE_ORACLE_GROUPS = ([GroupId.gamma0(n) for n in range(1, 101)]
                       + [GroupId.gamma1(n) for n in range(1, 31)]
                       + [GroupId.gamma(n) for n in range(1, 11)])


def _with_bottom_row(n: int, c: int, d: int) -> GroupElement:
    """An element of SL2(Z) with bottom row (c, d) mod n, for
    gcd(c, d, n) = 1."""
    c = c or n
    d = next(d + k * n for k in itertools.count() if gcd(c, d + k * n) == 1)
    a = pow(d, -1, abs(c))
    return GroupElement(a, (a * d - 1) // c, c, d)


def test_gamma0_key_matches_unit_loop_at_every_point():
    # every (c, d) with gcd(c, d, N) = 1 for N <= 60: the least of
    # u (c : d) over the units u is the gcd normal form that
    # _coset_invariant computes, one key per point of P^1(Z/N)
    for n in range(2, 61):
        G = GroupId.gamma0(n)
        keys = set()
        for c in range(n):
            for d in range(n):
                if gcd(c, d, n) == 1:
                    key = _coset_invariant(G, _with_bottom_row(n, c, d))
                    assert key == gamma0_key_unit_loop(n, c, d), (n, c, d)
                    keys.add(key)
        assert len(keys) == G.psl2z_index(), n


def test_gamma0_key_matches_unit_loop_at_seeded_points(rng):
    # bottom rows of either sign up to 1e6, some with N | c, at N <= 1000
    for _ in range(1500):
        n = rng.randint(2, 1000)
        c = rng.choice((rng.randint(-10 ** 6, 10 ** 6), n * rng.randint(-99, 99)))
        d = rng.randint(-10 ** 6, 10 ** 6)
        if gcd(c, d, n) != 1:
            continue
        g = _with_bottom_row(n, c, d)
        assert _coset_invariant(GroupId.gamma0(n), g) == gamma0_key_unit_loop(n, g.c, g.d), (n, g)


def _key_groups(n: int):
    """SL2(Z) and the three families of level n that the coset key defines."""
    return [GroupId.sl2z()] + [GroupId(f, n) for f in (
        Family.GAMMA_N, Family.GAMMA1_N, Family.GAMMA0_N)]


def test_member_matches_congruences_on_every_residue_class():
    # +-g for one lift g of each element of SL2(Z/n), n <= 12: every bottom
    # row (c, d) with gcd(c, d, n) = 1 lifted by _with_bottom_row, times
    # T^t for t mod n, which shares no code with _coset_invariant: member,
    # which reads the key, equals the entry congruences in every family
    checked, inside = 0, collections.Counter()
    for n in range(1, 13):
        groups = _key_groups(n)
        for c in range(n):
            for d in range(n):
                if gcd(c, d, n) != 1:
                    continue
                lift = _with_bottom_row(n, c, d)
                for t in range(n):
                    g = T ** t * lift
                    for x, G in itertools.product((g, -g), groups):
                        expected = member_by_congruences(x, G)
                        assert member(x, G) == expected, (x, G)
                        checked += 1
                        inside[G.family] += expected
    # 2 signs x 4 groups x the 4903 elements of SL2(Z/n), n = 1..12, of
    # which +-I (2 for n > 2, else 1), the +-[[1, t], [0, 1]] (2n for n > 2,
    # else n) and the n phi(n) upper triangular ones lie in the level-n groups
    assert checked == 8 * 4903
    assert inside == {Family.SL2Z: 2 * 4903, Family.GAMMA_N: 2 * (2 + 2 * 10),
                      Family.GAMMA1_N: 2 * (1 + 2 + 2 * 75),
                      Family.GAMMA0_N: 2 * 375}


def test_member_refuses_atkin_lehner_elements():
    # e > 1 lies in none of the groups that the coset key defines, though
    # these elements lie in Gamma0(N)+ at squarefree N
    rng = random.Random(20261021)
    for n in range(2, 61):
        for e in atkin_lehner_exponents(n)[1:]:
            w = atkin_lehner(n, e)
            if modgroup._squarefree(n):
                assert member(w, GroupId.gamma0_plus(n)), w
            for x in (w, -w, w * random_sl2z(rng), random_principal(rng, n) * w):
                for G in _key_groups(n):
                    assert not member(x, G) and not member_by_congruences(x, G), (x, G)


def test_member_matches_congruences_on_seeded_words():
    # words at every level n <= 60: in SL2(Z), in Gamma(n), shifted by T^t
    # into Gamma1(n) and by a bottom row (0, u) into Gamma0(n), and their
    # negatives, each tested in every family at level n
    rng = random.Random(20261022)
    checked, inside = 0, collections.Counter()
    for n in range(2, 61):
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        for _ in range(8):
            p = random_principal(rng, n)
            for g in (random_sl2z(rng), p, p * T ** rng.randint(-n, n),
                      _with_bottom_row(n, 0, rng.choice(units)) * p,
                      random_sl2z(rng) * p):
                for x, G in itertools.product((g, -g), _key_groups(n)):
                    expected = member_by_congruences(x, G)
                    assert member(x, G) == expected, (x, G)
                    checked += 1
                    inside[G.family] += expected
    assert checked == 59 * 8 * 5 * 2 * 4
    assert min(inside.values()) >= 59 * 8 * 2       # +-p lie in every group


@pytest.mark.parametrize("G", TABLE_ORACLE_GROUPS, ids=str)
def test_coset_table_matches_search_oracle(G):
    # same index, key order and act maps as the table with shrunk
    # representatives; each representative lies in the oracle's coset
    tab, oracle = coset_table(G), SearchCosetTable(G)
    index, act_T, act_S = coset_action(G, tab.reps)
    assert list(index) == list(oracle._index)
    assert act_T == oracle.act_T and act_S == oracle.act_S
    for r, o in zip(tab.reps, oracle.reps, strict=True):
        assert member(o * r.inverse(), G)
    assert tab.reps[index[_coset_invariant(G, I2)]] == I2


@pytest.mark.parametrize("G", TABLE_ORACLE_GROUPS + [GroupId.gamma0(143)], ids=str)
def test_coset_representatives_form_a_schreier_transversal(G):
    # every coset but the identity's is entered by a search-tree edge
    # rep_i * g = +-rep_j, which gives no Schreier generator; representatives
    # lifted from the keys alone meet far fewer edges (147 of 336 on
    # Gamma0(143), where the search tree has 167)
    tab = coset_table(G)
    _index, act_T, act_S = coset_action(G, tab.reps)
    tree = sum((r * g).canonical() == tab.reps[act[i]]
               for act, g in ((act_T, T), (act_S, S))
               for i, r in enumerate(tab.reps))
    assert tree >= len(tab.reps) - 1


@pytest.mark.parametrize("G", TABLE_ORACLE_GROUPS + [GroupId.gamma0(143)], ids=str)
def test_schreier_generators_match_second_pass(G):
    # the generators met on the search's non-tree edges are those of a
    # second pass over every edge, up to order and inversion
    def pair(g):
        return frozenset((g.canonical(), g.inverse().canonical()))

    gens, oracle = schreier_generators(G), schreier_generators_search(G)
    assert len(gens) == len(oracle) == len({pair(g) for g in gens})
    assert {pair(g) for g in gens} == {pair(g) for g in oracle}


def test_coset_table_is_cached_and_refuses_other_families():
    G = GroupId.gamma0(143)
    assert coset_table(G) is coset_table(G)
    assert len(coset_table(G).reps) == 168 and len(coset_table(G).generators) == 39
    with pytest.raises(ValueError, match=re.escape("no SL2(Z) coset table for Gamma0(6)+")):
        coset_table(GroupId.gamma0_plus(6))


@pytest.mark.parametrize("G1, G", [
    (GroupId.gamma0(6), GroupId.gamma1(6)),
    (GroupId.gamma1(6), GroupId.gamma0(6)),
    (GroupId.gamma0_plus(6), GroupId.sl2z()),
    (GroupId.gamma(4), GroupId.gamma0(4)),
    (GroupId.gamma(6), GroupId.gamma1(6)),
], ids=str)
def test_cosets_refuses_unsupported_containment(G1, G):
    with pytest.raises(ValueError, match=re.escape(f"unsupported containment {G1} <= {G}")):
        cosets(G1, G)


def test_level_cosets_build_no_gamma_table(coset_table_reads):
    # a symbol at the split cusp 1/6 of Gamma0(36), with k = 3, reads its
    # Gamma1(36)-classes off mod N, cold: no coset table of any group
    symbols._classes_above.cache_clear()
    symbols._lift_record.cache_clear()
    G, g = GroupId.gamma0(36), GroupElement(13, 9, 36, 25)
    value = psi_general(G, Cusp(1, 6), g)
    assert coset_table_reads == []
    assert value == psi_peel_lift_cocycle(G, Cusp(1, 6), g)


def test_gamma1_cosets_in_gamma0_match_level_oracle():
    # the units loop of the lift route, symbols._classes_above, against the
    # images tau^-1 a over the oracle's cosets tau of Gamma1(N) in
    # Gamma0(N): at every split cusp a of Gamma0(2..100) the same
    # Gamma1(N)-classes with the same multiplicities, each the ratio
    # w_c / w_a of the widths on Gamma1(N) and Gamma0(N)
    checked = 0
    for N in range(2, 101):
        G1, G = GroupId.gamma1(N), GroupId.gamma0(N)
        for a, width in cusps(G):
            d = gcd(a.q, N)
            if gcd(d, N // d) <= 2:
                continue
            oracle = collections.Counter(_cusp_key(G1, tau.inverse().apply_cusp(a))
                                         for tau in level_cosets(G1, G))
            above = symbols._classes_above(N, a)
            assert {_cusp_key(G1, c): m for c, m in above} == oracle, (N, a)
            assert len(above) == len(oracle), (N, a)
            for c, m in above:
                assert cusp_equivalent(G, c, a) and m == cusp_width(G1, c) // width, (N, a, c)
            checked += 1
    assert checked == 142


def test_parabolic_symbol_builds_no_gamma_table(coset_table_reads):
    # width and equivalence on Gamma(N) are read off mod N
    G = GroupId.gamma(36)
    base = Cusp(1, 2).base_matrix()
    g = base * T ** 72 * base.inverse()
    assert psi_general(G, Cusp(37, 2), g).rational == 2
    assert psi_general(G, Cusp(3, 2), g).rational == 0
    assert G not in coset_table_reads


def word_decompose(g: GroupElement):
    """Decompose g in SL2(Z) as a word in S, T, valid up to overall sign.

    Returns a list of (letter, exponent) pairs with letter "S" or "T";
    evaluate_word of the result equals g or -g.
    """
    if g.e != 1:
        raise ValueError("word decomposition needs e = 1")
    word = []
    a, b, c, d = g.entries()
    while c != 0:
        q = round(Fraction(a, c))  # nearest integer, exactly
        # peel T^q * S from the left; |a - q*c| <= |c|/2 forces termination
        a, b = a - q * c, b - q * d
        word.append(("T", q))
        a, b, c, d = c, d, -a, -b
        word.append(("S", 1))
    # now the matrix is +-[[1, b'],[0, 1]]
    word.append(("T", b * d))
    return [(sym, n) for sym, n in word if n != 0]


def evaluate_word(word) -> GroupElement:
    g = I2
    for sym, n in word:
        base = S if sym == "S" else T
        g = g * base ** n
    return g


def schreier_rewrite(G: GroupId, g: GroupElement):
    """Rewrite g in G as a product of Schreier generators.

    Returns the list of factors; their product equals +-g.  Raises if g is
    not in G.
    """
    if not member(g, G):
        raise ValueError(f"{g} is not in {G}")
    tab = coset_table(G)
    index, act_T, act_S = coset_action(G, tab.reps)
    factors = []
    state = index[_coset_invariant(G, I2)]
    for sym, n in word_decompose(g):
        gen = S if sym == "S" else T
        step = range(n) if n > 0 else range(-n)
        use = gen if n > 0 else gen.inverse()
        for _ in step:
            if n > 0:
                j = (act_T if sym == "T" else act_S)[state]
                factors.append(tab.reps[state] * use * tab.reps[j].inverse())
            else:
                # find predecessor state under the generator
                j = (act_T if sym == "T" else act_S).index(state)
                factors.append(tab.reps[state] * use * tab.reps[j].inverse())
            state = j
    if state != index[_coset_invariant(G, I2)]:
        raise ValueError("rewriting did not return to the identity coset")
    return [f for f in factors if not f.is_identity()]


def test_schreier_generators_generate(rng):
    # +-I is never a generator, so callers need not skip it
    for G in CUSP_ORACLE_GROUPS:
        assert not any(g.is_identity() for g in schreier_generators(G))
    # the rewrite of an element of G uses only the listed generators, also
    # for elements drawn without them: h r^-1 with r the representative of
    # the coset of a random h in SL2(Z)
    for G in [GroupId.sl2z(), GroupId.gamma(2), GroupId.gamma0(11),
              GroupId.gamma1(5)]:
        gens = schreier_generators(G)
        listed = {h for g in gens for h in (g.canonical(), g.inverse().canonical())}
        for g in gens:
            assert member(g, G)
        tab = coset_table(G)
        rep_of = {_coset_invariant(G, r): r for r in tab.reps}
        for k in range(40):
            if k % 2:
                g = random_in_group(rng, G)
            else:
                h = random_sl2z(rng)
                g = h * rep_of[_coset_invariant(G, h)].inverse()
            factors = schreier_rewrite(G, g)
            prod = GroupElement.identity()
            for f in factors:
                assert f.canonical() in listed
                prod = prod * f
            assert prod.canonical() == g.canonical()


def test_atkin_lehner():
    for N in [6, 10, 11, 12]:
        for e in atkin_lehner_exponents(N):
            w = atkin_lehner(N, e)
            assert w.e == e
            # normalizes Gamma0(N)
            g = GroupElement(1, 1, 0, 1) * GroupElement(1, 0, N, 1)
            assert member(g.conjugate_by(w), GroupId.gamma0(N))
            # involution modulo Gamma0(N)
            assert member((w * w).reduced(), GroupId.gamma0(N))


def test_level_arithmetic_matches_brute_force_scans():
    # every fact about N that modgroup reads off _prime_powers, against
    # scans over all d <= N: the divisor lists of a sieve, the primes as the
    # d > 1 with no divisor strictly between 1 and d, and each p^k || N as
    # the largest d in the list whose divisors are 1, p, ..., p^i
    top = 3000
    divs = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            divs[m].append(d)
    for n in range(1, top + 1):
        primes = [p for p in divs[n] if p > 1 and divs[p] == [1, p]]
        powers = [(p, max(d for d in divs[n]
                          if divs[d] == [p ** i for i in range(len(divs[d]))]))
                  for p in primes]
        assert modgroup._prime_powers(n) == tuple(powers), n
        assert [p for p, _q in modgroup._prime_powers(n)] == primes, n
        assert modgroup._squarefree(n) == all(n % (d * d) for d in divs[n][1:]), n
        assert modgroup._divisors(n) == tuple(divs[n]), n
        assert atkin_lehner_exponents(n) == [
            e for e in divs[n] if gcd(e, n // e) == 1], n
        assert prod(q for _p, q in modgroup._prime_powers(n)) == n, n
