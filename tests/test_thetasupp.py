import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta import thetasupp
from kleinzeta.thetasupp import (COSET_TYPES, CosetParams, PadicMat2, ScanBox, alpha_matrix,
                                 archimedean_equivariance, char_sum, default_invariance_probes,
                                 e1_matrix, in_lattice, in_support_pair, lev_support, rho_act,
                                 scan_type, stabilizer_invariance_check)

import shift_loop
from brute_rho import coset_rep


def entries(M):
    """The four entries of a PadicMat2 as Fractions, row major."""
    return tuple(Fraction(e, M.den) for e in (M.a, M.b, M.c, M.d))


def val_p(p, f):
    """p-adic valuation of a rational, None for 0: the tests' Fraction
    reference for the scanner's integer valuations."""
    f = Fraction(f)
    if f == 0:
        return None
    v = 0
    while f.numerator % p == 0:
        f, v = f / p, v + 1
    while f.denominator % p == 0:
        f, v = f * p, v - 1
    return v


def test_val_p():
    assert val_p(5, Fraction(50)) == 2
    assert val_p(5, Fraction(3, 25)) == -2
    assert val_p(5, Fraction(0)) is None


def test_rho_identity_action():
    p = 11
    e1 = e1_matrix(p)
    I = PadicMat2.identity()
    assert rho_act(I, I, e1) == e1


def test_rho_is_right_action():
    rng = random.Random(2)
    p = 5

    def rnd():
        while True:
            m = PadicMat2.of(*[Fraction(rng.randint(-4, 4), rng.choice([1, p]))
                               for _ in range(4)])
            if m.det() != 0:
                return m

    x = PadicMat2.of(1, Fraction(1, p), 2, 3)
    for _ in range(20):
        h1, h2, g1, g2 = rnd(), rnd(), rnd(), rnd()
        lhs = rho_act(h1 * g1, h2 * g2, x)
        rhs = rho_act(g1, g2, rho_act(h1, h2, x))
        assert lhs == rhs


def test_rho_singular_raises():
    p = 3
    sing = PadicMat2.of(1, 2, 2, 4)
    with pytest.raises(ZeroDivisionError):
        rho_act(sing, PadicMat2.identity(), e1_matrix(p))


def test_padicmat2_arithmetic_matches_fraction_formulas():
    # the numerator/denominator arithmetic of PadicMat2 against the Fraction
    # formulas, on seeded matrices whose denominators mix powers of p, 2 and
    # 3p; results must be in lowest terms with den > 0 so that equal
    # matrices compare equal
    p = 5
    rng = random.Random(5)
    dens = [1, p, p * p, p ** 3, 2, 4, 3 * p]

    def rnd_entry():
        return Fraction(rng.randint(-12, 12), rng.choice(dens))

    def canonical(M, expected):
        assert M.den > 0 and math.gcd(M.a, M.b, M.c, M.d, M.den) == 1
        assert entries(M) == tuple(expected)
        # the same matrix built from scaled-up numerators is the same value
        k = rng.choice([-6, -1, 2, 3 * p])
        N = PadicMat2(M.a * k, M.b * k, M.c * k, M.d * k, M.den * k)
        assert N == M and hash(N) == hash(M)

    samples = [[rnd_entry() for _ in range(4)] for _ in range(300)]
    samples.append([Fraction(0)] * 4)
    signs = set()
    for x in samples:
        X = PadicMat2.of(*x)
        canonical(X, x)
        det = x[0] * x[3] - x[1] * x[2]
        assert X.det() == det
        signs.add((det > 0) - (det < 0))
        for f in (Fraction(0), Fraction(-1), rnd_entry()):
            canonical(X.scale(f), [e * f for e in x])
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                X.inv()
        else:
            canonical(X.inv(), [x[3] / det, -x[1] / det, -x[2] / det, x[0] / det])
        y = rng.choice(samples)
        canonical(X * PadicMat2.of(*y), [x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                                         x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]])
    assert signs == {-1, 0, 1}
    zero = PadicMat2.of(0, 0, 0, 0)
    assert zero == PadicMat2(0, 0, 0, 0, -7) and zero.den == 1
    with pytest.raises(ZeroDivisionError):
        PadicMat2(1, 0, 0, 1, 0)


@pytest.mark.parametrize("bad", [0.1, 1.0, Decimal("0.5"), "1"])
def test_padicmat2_takes_only_ints_and_fractions(bad):
    with pytest.raises(TypeError):
        PadicMat2.of(bad, 0, 0, 1)
    with pytest.raises(TypeError):
        PadicMat2.identity().scale(bad)
    with pytest.raises(TypeError):
        PadicMat2(bad, 0, 0, 1)


def test_type_one_rho_image_closed_form():
    p = 11
    for (m, r, x) in [(0, 0, Fraction(0)), (1, -1, Fraction(3, p)), (-2, 1, Fraction(5))]:
        n = m + 2 * r
        h1, h2 = coset_rep(p, CosetParams("I", m, n, r, x=x))
        img_e = rho_act(h1, h2, e1_matrix(p))
        img_a = rho_act(h1, h2, alpha_matrix(p))
        P = Fraction(p)
        assert img_e == PadicMat2.of(0, P ** (-1 - m - r), 0, 0)
        assert img_a == PadicMat2.of(P ** (-1 - m + n - r), P ** (-1 - m - r) * x,
                                  0, -(P ** (-1 - r)))


def test_stabilizer_fixes_the_pair():
    p = 11
    for x in (Fraction(0), Fraction(2), Fraction(1, 1)):
        g1 = PadicMat2.of(1, x, 0, 1)
        g2 = PadicMat2.of(1, -x, 0, 1)
        assert rho_act(g1, g2, e1_matrix(p)) == e1_matrix(p)
        assert rho_act(g1, g2, alpha_matrix(p)) == alpha_matrix(p)


def test_in_lattice_examples():
    p = 11
    L1, L2 = lev_support(p)
    assert in_lattice(e1_matrix(p), L1)
    assert in_lattice(alpha_matrix(p), L2)
    assert not in_lattice(PadicMat2.identity(), L2)
    assert in_lattice(PadicMat2.identity(), L1)


def test_in_lattice_matches_fraction_valuations():
    # the integer lattice test, which reads v(e) - v(den) off the
    # numerators, against the Fraction valuation of every entry: seeded
    # matrices with zero entries, both signs, and factors prime to p in the
    # denominator, on the two support lattices and on random constraints
    from kleinzeta.thetasupp import EntryConstraint, LatticeSpec

    rng = random.Random(23)
    members = 0
    for p in (3, 5, 11):
        lattices = list(lev_support(p))
        lattices += [LatticeSpec(p, tuple(EntryConstraint(rng.randint(-3, 3), rng.random() < 0.3)
                                         for _ in range(4))) for _ in range(6)]
        for _ in range(300):
            nums = [0 if rng.random() < 0.2 else
                    rng.choice([1, -1]) * rng.choice([1, 2, 4, 7, 13]) * p ** rng.randint(0, 3)
                    for _ in range(4)]
            den = rng.choice([1, 2, 3, 7, 10]) * p ** rng.randint(0, 3)
            x = PadicMat2(*nums, den)
            for L in lattices:
                expected = all(c.satisfied(val_p(p, Fraction(e, den)))
                               for c, e in zip(L.constraints, nums))
                assert in_lattice(x, L) == expected, (p, nums, den, L)
                members += expected
    assert members > 100


def test_membership_homogeneous_under_scaling():
    p = 11
    L1, L2 = lev_support(p)
    shifted_L1 = type(L1)(p, tuple(type(c)(c.v_min + 1, c.unit_exact) for c in L1.constraints))
    shifted_L2 = type(L2)(p, tuple(type(c)(c.v_min + 1, c.unit_exact) for c in L2.constraints))
    for x1, x2 in default_invariance_probes(p):
        before = in_support_pair(x1, x2, (L1, L2))
        after = in_support_pair(x1.scale(p), x2.scale(p), (shifted_L1, shifted_L2))
        assert before == after


def test_coset_rep_shapes():
    p = 11
    h1, h2 = coset_rep(p, CosetParams("I", 0, 0, 0))
    assert h1 == PadicMat2.identity() and h2 == PadicMat2.identity()
    # weyl factor sits on the first component for II, on both for IV
    h1, h2 = coset_rep(p, CosetParams("II", 0, 2, 0, s=Fraction(1, p)))
    assert entries(h1)[2] == p * p and entries(h2)[2] == 0
    h1, h2 = coset_rep(p, CosetParams("IV", 0, 0, 0, s=Fraction(1, p), t=Fraction(2, p)))
    assert entries(h1)[2] == p * p and entries(h2)[2] == p * p
    with pytest.raises(ValueError):
        CosetParams("I", 1, 0, 0)
    with pytest.raises(ValueError):
        coset_rep(p, CosetParams("II", 0, 2, 0, s=Fraction(1, 2)))
    with pytest.raises(ValueError):
        CosetParams("V", 0, 0, 0)


def test_char_sum_values():
    # coordinates over 1, zeta_p, ..., zeta_p^(p-2)
    assert char_sum(11, 0) == [1] + [0] * 9
    for p in (3, 11):
        for v in range(1, 5):
            assert char_sum(p, v) == [0] * (p - 1)
    with pytest.raises(ValueError):
        char_sum(4, 1)
    with pytest.raises(ValueError):
        char_sum(3, -1)


@pytest.mark.parametrize("p", [3, 11])
def test_scan_claims_certify(p):
    box = ScanBox(radius=3) if p == 11 else ScanBox()
    for ty in ("I", "II", "III", "IV"):
        rep = scan_type(p, ty, box)
        assert rep.status == "certified", (ty, rep.claims)
        assert all(rep.claims.values())


def _scanner_rows(p, ty, box, families_box=None):
    """(params, zero, bits) of every (m, n, r, s, t), walked through the
    scanner's own families, shifts and shift rules; a shift the rules skip
    has the empty row set, and no live rule keeps a marked row."""
    from kleinzeta.thetasupp import _families, _Scan, _shifts

    scan = _Scan(p, ty, box)
    ivals, jvals = _shifts(ty, p)
    for m, n, r in _families(ty, families_box or box):
        live = {(i, j): rule
                for i, j, rule in scan.shift_rules(scan.kernels(m, n, r), ivals, jvals)}
        for i in ivals:
            for j in jvals:
                zero, bits, marked = live.get((i, j), (False, 0, 0))
                assert not bits & marked, (ty, m, n, r, i, j)
                yield CosetParams(ty, m, n, r, Fraction(i, p), Fraction(j, p)), zero, bits


def _units(p, box):
    return [u for u in range(1, p ** box.x_res_exponent) if u % p]


def _bruteforce_member(p, params, x):
    h1, h2 = coset_rep(p, CosetParams(params.type, params.m, params.n, params.r,
                                      params.s, params.t, x))
    return in_support_pair(rho_act(h1, h2, e1_matrix(p)), rho_act(h1, h2, alpha_matrix(p)),
                           lev_support(p))


def test_scan_masks_match_bruteforce_rho_evaluation():
    # oracle for the row sets: evaluate x = 0 and every unit u mod p^e of
    # every row directly with exact matrix arithmetic, and compare each with
    # its row's bit, so membership must not vary within a row either.
    # Every (m, n, r, s, t) is checked, the shifts that the separable rules
    # skip (empty sets) included, so those really are empty.
    for p, box in ((3, ScanBox(radius=2, x_val_range=2, x_res_exponent=2)),
                   (5, ScanBox(radius=1, x_val_range=2, x_res_exponent=2))):
        vals = range(-box.x_val_range, box.x_val_range + 1)
        empty = 0
        for ty in ("I", "II", "III", "IV"):
            for params, zero, bits in _scanner_rows(p, ty, box):
                empty += not zero and not bits
                assert zero == _bruteforce_member(p, params, Fraction(0))
                for k, v in enumerate(vals):
                    for u in _units(p, box):
                        expected = _bruteforce_member(p, params, Fraction(u) * Fraction(p) ** v)
                        assert bool(bits >> k & 1) == expected, (ty, params, v, u)
        assert empty > 0, p


def test_type_four_masks_match_bruteforce_rho_at_p11():
    # the same independent route at the paper's prime, on the default rows:
    # every type IV family with |m|, |n|, |r| <= 1 and every (s, t), checked
    # at x = 0 and at 30 seeded random points u p^v
    p, box = 11, ScanBox()
    vals, units = list(range(-box.x_val_range, box.x_val_range + 1)), _units(p, box)
    rng = random.Random(20261018)
    members = 0
    for params, zero, bits in _scanner_rows(p, "IV", box, ScanBox(radius=1)):
        assert zero == _bruteforce_member(p, params, Fraction(0)), params
        for _ in range(30):
            v = rng.choice(vals)
            u = units[rng.randrange(len(units))]
            expected = _bruteforce_member(p, params, Fraction(u) * Fraction(p) ** v)
            assert bool(bits >> vals.index(v) & 1) == expected, (params, v, u)
            members += expected
    assert members > 0   # the sample reaches the support, not only its complement


def test_entry_d_is_implied_on_the_bruteforce_route():
    # the lemmas behind the scanner's missing d rules, on coset_rep and
    # rho_act alone: x1 = x2 (h2^-1 E12 h2) and det h1 = det h2, so every
    # tuple whose images meet a, b and c of both lattices also meets
    # constraints 3 (L1's d) and 7 (L2's d)
    from kleinzeta.thetasupp import _N_SHIFT, _WEYL

    rng = random.Random(20261018)
    e12 = PadicMat2.of(0, 1, 0, 0)
    hits = dict.fromkeys(COSET_TYPES, 0)
    for _ in range(6000):
        p = rng.choice([3, 5, 7, 11])
        ty = rng.choice(COSET_TYPES)
        m, r = rng.randint(-4, 4), rng.randint(-4, 4)
        s, t = (Fraction(rng.randrange(p), p) if weyl else Fraction(0) for weyl in _WEYL[ty])
        u = rng.randrange(1, p ** 3)
        x = Fraction(0) if u % p == 0 else Fraction(u) * Fraction(p) ** rng.randint(-4, 4)
        h1, h2 = coset_rep(p, CosetParams(ty, m, m + 2 * r + _N_SHIFT[ty], r, s, t, x))
        x1 = rho_act(h1, h2, e1_matrix(p))
        x2 = rho_act(h1, h2, alpha_matrix(p))
        assert x1 == x2 * (h2.inv() * e12 * h2)
        assert h1.det() == h2.det()
        L1, L2 = lev_support(p)
        cons = L1.constraints + L2.constraints
        v = [val_p(p, f) for f in entries(x1) + entries(x2)]
        if all(cons[e].satisfied(v[e]) for e in (0, 1, 2, 4, 5, 6)):
            hits[ty] += 1
            assert cons[3].satisfied(v[3]), (p, ty, m, r, s, t, x)
            assert cons[7].satisfied(v[7]), (p, ty, m, r, s, t, x)
    # the sample reaches the support
    assert hits["I"] > 0 and hits["IV"] > 0, hits


@pytest.mark.parametrize("p", [3, 11])
def test_family_kernels_match_coset_rep(p):
    # the kernels a scan builds from its memoised factors, against the
    # products of the brute-force coset representatives, entry by entry
    from kleinzeta.thetasupp import _families, _Scan

    box = ScanBox()
    e12 = PadicMat2.of(0, 1, 0, 0)
    for ty in COSET_TYPES:
        scan = _Scan(p, ty, box)
        for m, n, r in _families(ty, box):
            kernels, shift = scan.kernels(m, n, r)
            h1, h2 = coset_rep(p, CosetParams(ty, m, n, r))
            inv = h1.inv()
            exact = []
            for y in (e1_matrix(p), alpha_matrix(p)):
                exact += [inv * y * h2, (inv * e12 * y * h2).scale(-1)]
            scale = Fraction(p) ** (shift - 2)
            got = [tuple(Fraction(x) / scale for x in k) for k in kernels]
            assert got == [entries(K) for K in exact], (ty, m, n, r)
            # the kernels keep the power of p they are formed over, which
            # clears every denominator but need not be the least one that does
            assert shift >= 2 and all(type(x) is int for k in kernels for x in k)
            assert all(p ** (shift - 2) % f.denominator == 0 for K in exact for f in entries(K))
        assert len(scan.left) <= 2 * box.radius + 1 and len(scan.right) <= 2 * box.radius + 1


def test_entry_rule_matches_constraint_pointwise():
    # the valuation rule of one affine entry (na + nb x) / p^shift, formed
    # from the valuations of its two terms, against EntryConstraint.satisfied
    # of the Fraction value at x = 0 and at every unit of every row it does
    # not mark; a marked row (at most one) stays set, for the meet to see
    # it.  The cases include a + b u = 0 at a unit, and rows whose verdict
    # needs u mod p and finer classes
    from kleinzeta.thetasupp import EntryConstraint, _entry_rule

    p = 3
    box = ScanBox(radius=1, x_val_range=3, x_res_exponent=2)
    vals = range(-box.x_val_range, box.x_val_range + 1)
    rng = random.Random(7)

    def rnd_entry():
        if rng.random() < 0.15:
            return 0
        return rng.choice([1, -1]) * rng.choice([1, 2, 4, 5, 7, 8, 13]) * p ** rng.randint(0, 3)

    cases = [(-5, 1, 0), (-5 * p, p, 1), (7, -7, 2)]   # a + b u vanishes at a unit
    cases += [(rnd_entry(), rnd_entry(), rng.randint(0, 3)) for _ in range(150)]
    marked_rows = 0
    for na, nb, shift in cases:
        for v_min in range(-2, 4):
            for exact in (False, True):
                con = EntryConstraint(v_min, exact)
                vA, vB = (val_p(p, Fraction(n, p ** shift)) for n in (na, nb))
                zero, bits, marked = _entry_rule(vA, vB, con, vals)
                assert marked & bits == marked and marked & (marked - 1) == 0

                def direct(x):
                    return con.satisfied(val_p(p, (na + nb * x) / Fraction(p) ** shift))

                assert zero == direct(Fraction(0))
                for k, v in enumerate(vals):
                    if marked >> k & 1:
                        marked_rows += 1
                        continue
                    for u in _units(p, box):
                        expected = direct(Fraction(u) * Fraction(p) ** v)
                        assert bool(bits >> k & 1) == expected, (na, nb, shift, con, v, u)
    assert marked_rows > 100


def test_xmask_zp_pattern_and_counts():
    # counts and cancellation of row sets at p = 3, |v| <= 1, units mod 9
    # (six per row); bits run from row -1 (bit 0) to row 1 (bit 2)
    from kleinzeta.thetasupp import _Scan

    scan = _Scan(3, "I", ScanBox(radius=1, x_val_range=1, x_res_exponent=2))
    zp = {"zero": True, "by_val": {-1: 0, 0: 6, 1: 6}}
    assert scan.count(True, 0b110) == zp
    assert scan.count(False, 0b110) != zp and scan.count(True, 0b111) != zp
    assert scan.count(False, 0) == {"zero": False, "by_val": {-1: 0, 0: 0, 1: 0}}
    # every translate of Z_p has valuation -1, off the set: nothing cancels
    assert scan.uncanceled(True, 0b110) == zp
    # with row -1 in the set, everything cancels ...
    assert scan.uncanceled(True, 0b111) == scan.count(False, 0)
    # ... unless the integral translate ceil(u/3) of u/3 leaves it: u = 7, 8
    # reach 3, in row 1
    assert scan.uncanceled(True, 0b011) == {"zero": False, "by_val": {-1: 2, 0: 0, 1: 0}}
    # rows v < -1 cancel on their own; the point 0 and row 0 need row -1
    scan = _Scan(3, "I", ScanBox(radius=1, x_val_range=2, x_res_exponent=2))
    assert scan.uncanceled(True, 0b00101) == {"zero": True,
                                              "by_val": {-2: 0, -1: 0, 0: 6, 1: 0, 2: 0}}


def test_cancellation_closed_form_matches_exact_translation():
    # uncanceled() against the orbit x + j/p formed with Fractions: a point
    # of the set stays when a translate lies off it (in a row outside the
    # set or past the scanned valuations).  Random row sets, partial row -1
    # included, which no default scan produces
    from kleinzeta.thetasupp import _Scan

    rng = random.Random(19)
    partial = 0
    for p, E in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)):
        for R in (0, 1, 3):
            box = ScanBox(radius=1, x_val_range=R, x_res_exponent=E)
            scan = _Scan(p, "I", box)
            units = _units(p, box)
            for _ in range(4):
                zero, bits = rng.random() < 0.5, rng.getrandbits(2 * R + 1)
                if R and rng.random() < 0.75:
                    bits |= 1 << (R - 1)        # row -1

                def member(y):
                    v = val_p(p, y)
                    return zero if v is None else abs(v) <= R and bool(bits >> (v + R) & 1)

                def stays(x):
                    return member(x) and any(not member(x + Fraction(j, p)) for j in range(1, p))

                expected = {"zero": stays(Fraction(0)),
                            "by_val": {v: sum(stays(Fraction(u) * Fraction(p) ** v) for u in units)
                                       for v in range(-R, R + 1)}}
                assert scan.uncanceled(zero, bits) == expected, (p, E, R, zero, bin(bits))
                partial += 0 < expected["by_val"].get(-1, 0) < len(units)
    assert partial > 0


def _nonempty_keys(rep):
    return {(c.m, c.n, c.r, c.s, c.t) for c in rep.nonempty}


def test_scan_monotone_in_box():
    for ty in COSET_TYPES:
        small = scan_type(3, ty, ScanBox(radius=2))
        large = scan_type(3, ty, ScanBox(radius=3))
        assert small.status == large.status == "certified", ty
        assert _nonempty_keys(small) <= _nonempty_keys(large), ty


@pytest.mark.parametrize("ty", COSET_TYPES)
def test_certificates_do_not_depend_on_the_box(ty):
    default = scan_type(11, ty)
    larger = scan_type(11, ty, ScanBox(radius=5, x_val_range=5))
    assert larger.status == default.status == "certified"
    assert larger.claims == default.claims
    assert _nonempty_keys(default) <= _nonempty_keys(larger)


GOLDEN_CERTIFICATES = Path(__file__).parent / "data" / "theta_certificates.json"


@pytest.mark.parametrize("p", [3, 11])
@pytest.mark.parametrize("ty", COSET_TYPES)
def test_scan_reproduces_golden_certificates(p, ty):
    # frozen from the scanner that formed the exact PadicMat2 product for
    # every (m, n, r, s, t): certificates must stay bit-identical
    golden = json.loads(GOLDEN_CERTIFICATES.read_text())[f"{p}-{ty}"]
    rep = scan_type(p, ty, ScanBox())
    assert json.loads(json.dumps(rep.to_dict())) == golden


# SHA-256 over the sorted-key JSON of scan_type(p, ty, box).to_dict() for p, box
# and ty in the orders below, frozen from the scanner that keyed its entry
# rules by numerators and formed its kernels with PadicMat2 products
CERTIFICATE_DIGEST = "e69aecff6fc1fd758241d5cc1dc3c66cddbdf392aca7a20c06d767e17a2a5b94"


def test_scans_reproduce_the_certificate_digest():
    # every certificate, not only the claims, at four more primes and four
    # boxes: the default, a zero bound, and two coarse or narrow x-grids
    import hashlib

    boxes = [ScanBox(), ScanBox(radius=0), ScanBox(radius=2, x_val_range=3, x_res_exponent=1),
             ScanBox(radius=3, x_val_range=2, x_res_exponent=2)]
    digest = hashlib.sha256()
    for p in (3, 5, 7, 13):
        for box in boxes:
            for ty in COSET_TYPES:
                digest.update(json.dumps(scan_type(p, ty, box).to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == CERTIFICATE_DIGEST


def test_default_scans_entry_rule_count(monkeypatch):
    # operation-count guard: rules keyed by the valuations of the entry's two
    # terms form 152 entry rules over the four default p = 11 scans (keyed
    # by the numerators, 1314; per-shift evaluation formed 3760), and no rule
    # reads entry d (constraints 3 and 7), which a, b and c imply
    from kleinzeta import thetasupp

    calls = 0
    entry_rule = thetasupp._entry_rule
    support = thetasupp.lev_support
    d_constraints = []

    def lattices(p):
        L1, L2 = support(p)
        d_constraints.extend((L1.constraints[3], L2.constraints[3]))
        return L1, L2

    def counted(vA, vB, con, vals):
        nonlocal calls
        calls += 1
        assert not any(con is d for d in d_constraints)
        return entry_rule(vA, vB, con, vals)

    monkeypatch.setattr(thetasupp, "lev_support", lattices)
    monkeypatch.setattr(thetasupp, "_entry_rule", counted)
    for ty in COSET_TYPES:
        scan_type(11, ty, ScanBox())
    assert d_constraints
    assert 0 < calls <= 160


def test_default_scans_build_bookkeeping_only_where_it_is_read(monkeypatch):
    # operation-count guard: the four default p = 11 scans construct a
    # CosetParams only for the 12 contributing combos that the claims read
    # (one per in-support combo built 60), and call uncanceled once per
    # distinct row set (zero, bits) of a scan, 10 in all (once per combo
    # called it 60 times)
    built, row_sets = [], []
    params, uncanceled = thetasupp.CosetParams, thetasupp._Scan.uncanceled

    def counted_params(*args):
        built.append(args)
        return params(*args)

    def counted_uncanceled(self, zero, bits):
        row_sets.append((self.type, zero, bits))
        return uncanceled(self, zero, bits)

    monkeypatch.setattr(thetasupp, "CosetParams", counted_params)
    monkeypatch.setattr(thetasupp._Scan, "uncanceled", counted_uncanceled)
    contributing = distinct = 0
    for ty in COSET_TYPES:
        rep = scan_type(11, ty, ScanBox())
        assert rep.status == "certified"
        contributing += sum(c.beta_possible and not c.support_translation_stable
                            for c in rep.nonempty)
        distinct += len({json.dumps(c.in_support, sort_keys=True) for c in rep.nonempty})
    assert len(built) == contributing == 12
    assert len(row_sets) == len(set(row_sets)) == distinct == 10


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_shift_rules_ignore_a_common_power_of_p(p):
    # the kernels are left over the power of p they are formed with: scaling
    # every term by p^c and raising the shift by c changes no valuation
    # v_p(f0 + f1 u) - shift and no special residue -u0 u1^-1 mod p, so the
    # live list of every family of every type is the same
    from kleinzeta.thetasupp import _families, _Scan, _shifts

    box = ScanBox()
    live = 0
    for ty in COSET_TYPES:
        scan = _Scan(p, ty, box)
        ivals, jvals = _shifts(ty, p)
        for m, n, r in _families(ty, box):
            kernels, shift = scan.kernels(m, n, r)
            got = scan.shift_rules((kernels, shift), ivals, jvals)
            for c in (1, 2):
                scaled = [tuple(x * p ** c for x in k) for k in kernels]
                assert _Scan(p, ty, box).shift_rules((scaled, shift + c), ivals, jvals) == got, \
                    (ty, m, n, r, c)
            live += len(got)
    assert live > 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_class_scan_matches_the_per_shift_loop(p):
    # the scanner, which meets each residue class of each shift once, against
    # the loop that meets every (i, j) on its own (tests/shift_loop.py): equal
    # live lists, marked rows included, for every family of every type over
    # the four boxes of the certificate digest test
    from kleinzeta.thetasupp import _families, _Scan, _shifts

    boxes = [ScanBox(), ScanBox(radius=0), ScanBox(radius=2, x_val_range=3, x_res_exponent=1),
             ScanBox(radius=3, x_val_range=2, x_res_exponent=2)]
    live = 0
    for box in boxes:
        for ty in COSET_TYPES:
            scan = _Scan(p, ty, box)
            ivals, jvals = _shifts(ty, p)
            for m, n, r in _families(ty, box):
                family = scan.kernels(m, n, r)
                got = scan.shift_rules(family, ivals, jvals)
                assert got == shift_loop.shift_rules(scan, family, ivals, jvals), (box, ty, m, n, r)
                live += len(got)
    assert live > 0


def test_default_scans_meet_count(monkeypatch):
    # operation-count guard: meeting each residue class of a shift once, and
    # each (rule, entry, valuations) once per scan, takes 150 meets over the
    # four default p = 11 scans and as many at p = 31; the meet per (i, j)
    # took 1394 and 6614, growing as p^2
    calls = 0
    meet = thetasupp._Scan._meet

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return meet(self, *args)

    monkeypatch.setattr(thetasupp._Scan, "_meet", counted)
    counts = {}
    for p in (11, 31):
        calls = 0
        for ty in COSET_TYPES:
            assert scan_type(p, ty, ScanBox()).status == "certified"
        counts[p] = calls
    assert 0 < counts[11] <= 500 and counts[31] <= 2 * counts[11], counts


def test_no_marked_row_survives_a_sweep():
    # the proof in _Scan.shift_rules, on the scanner itself: over every odd
    # p <= 31 at radius 5 and |v(x)| <= 5, the live meets carry marked rows
    # (740 of them) and every one is ruled out by another entry
    from kleinzeta.ffield import is_prime
    from kleinzeta.thetasupp import _families, _Scan, _shifts

    box = ScanBox(radius=5, x_val_range=5)
    marked_rows = 0
    for p in filter(is_prime, range(3, 32)):
        for ty in COSET_TYPES:
            scan = _Scan(p, ty, box)
            ivals, jvals = _shifts(ty, p)
            for m, n, r in _families(ty, box):
                for i, j, (_, bits, marked) in scan.shift_rules(scan.kernels(m, n, r),
                                                                ivals, jvals):
                    assert not bits & marked, (p, ty, m, n, r, i, j)
                    marked_rows += bin(marked).count("1")
    assert marked_rows > 0


def test_scan_small_box_inconclusive():
    rep = scan_type(3, "I", ScanBox(radius=1, x_val_range=2, x_res_exponent=2))
    assert rep.status == "inconclusive"


def test_scan_type_one_contributing_structure():
    rep = scan_type(3, "I", ScanBox())
    origin = [c for c in rep.nonempty if (c.m, c.n, c.r) == (0, 0, 0)]
    assert len(origin) == 1
    c = origin[0]
    assert c.beta_possible
    assert c.contributing["zero"]
    for v, cnt in c.contributing["by_val"].items():
        if v >= 0:
            assert cnt > 0
        else:
            assert cnt == 0
    # every other in-support family is translation stable, hence canceled
    for c in rep.nonempty:
        if (c.m, c.n, c.r) != (0, 0, 0):
            assert c.support_translation_stable
            assert not c.beta_possible


@pytest.mark.parametrize("field", ["radius", "x_val_range", "x_res_exponent"])
def test_scan_box_rejects_negative_bounds(field):
    # an empty box scans nothing; it must not come back refuted
    with pytest.raises(ValueError, match=f"{field}=-1"):
        ScanBox(**{field: -1})


@pytest.mark.parametrize("ty", ["I", "IV"])
@pytest.mark.parametrize("radius", [0, 1])
def test_scan_tiny_box_stays_inconclusive(radius, ty):
    assert scan_type(11, ty, ScanBox(radius=radius)).status == "inconclusive"


@pytest.mark.parametrize("p", [3, 11])
@pytest.mark.parametrize("box", [ScanBox(x_val_range=0), ScanBox(x_val_range=1),
                                 ScanBox(x_res_exponent=0)],
                         ids=["x_val_range=0", "x_val_range=1", "x_res_exponent=0"])
def test_scan_degenerate_x_grid_stays_inconclusive(box, p):
    # a grid too coarse to certify fails claims that the default box meets;
    # that must read inconclusive, not refute the paper
    for ty in COSET_TYPES:
        assert scan_type(p, ty, box).status == "inconclusive", ty


def test_scan_report_serializes():
    rep = scan_type(3, "IV", ScanBox(radius=2))
    d = rep.to_dict()
    assert d["type"] == "IV" and d["claims"]


def test_stabilizer_invariance():
    assert stabilizer_invariance_check(3)
    assert stabilizer_invariance_check(11)


def test_stabilizer_tests_each_probe_once_before_the_action(monkeypatch):
    # the untransformed pair reads no sample: one support test per probe,
    # then one per (sample, probe), so 7 + 10 * 7 = 77 at p = 11
    from kleinzeta import thetasupp
    calls = []
    original = thetasupp.in_support_pair

    def counted(x1, x2, supports):
        calls.append((x1, x2))
        return original(x1, x2, supports)

    monkeypatch.setattr(thetasupp, "in_support_pair", counted)
    p = 11
    probes = default_invariance_probes(p)
    samples = thetasupp.default_invariance_samples(p)
    assert (len(probes), len(samples)) == (7, 10)
    assert stabilizer_invariance_check(p)
    assert len(calls) == len(probes) * (1 + len(samples)) == 77
    assert calls[:len(probes)] == probes


def test_stabilizer_invariance_rejects_bad_samples(monkeypatch):
    p = 11
    bad = (PadicMat2.of(1, 0, p, 1), PadicMat2.identity())  # only level p
    monkeypatch.setattr(thetasupp, "default_invariance_samples", lambda p: [bad])
    with pytest.raises(ValueError):
        stabilizer_invariance_check(p)
    unequal = (PadicMat2.of(1, 0, 0, 2), PadicMat2.identity())
    monkeypatch.setattr(thetasupp, "default_invariance_samples", lambda p: [unequal])
    with pytest.raises(ValueError):
        stabilizer_invariance_check(p)


def test_level_p_conjugation_moves_the_support():
    # a Gamma_0(p) (not p^2) pair does move the support: the check's premise
    # really is needed
    p = 11
    g1 = PadicMat2.of(1, 0, p, 1)
    g2 = PadicMat2.identity()
    sup = lev_support(p)
    before = in_support_pair(e1_matrix(p), alpha_matrix(p), sup)
    after = in_support_pair(rho_act(g1, g2, e1_matrix(p)),
                            rho_act(g1, g2, alpha_matrix(p)), sup)
    assert before and not after


# ---------------------------------------------------------------------------
# archimedean equivariance: the exact check against the float rotation route


def p_plus(x) -> complex:
    """Tr(x * [[-i, -1], [-1, i]])."""
    a, b, c, d = x[0][0], x[0][1], x[1][0], x[1][1]
    return -(b + c) - 1j * (a - d)


def p_minus(x) -> complex:
    """Tr(x * [[i, 1], [-1, i]])."""
    a, b, c, d = x[0][0], x[0][1], x[1][0], x[1][1]
    return (c - b) + 1j * (a + d)


def float_equivariance(t1, t2, x, plus=p_plus, minus=p_minus) -> tuple:
    """Residuals (P+, P-) of the rotation equivariance at one sample, in floats.

    With u_t = [[cos t, sin t], [-sin t, cos t]] and the action
    x -> u_(t1)^-1 x u_(t2), P+ picks up the phase e^(-i(t2 + t1)) and
    P- picks up e^(-i(t1 - t2)).  Both residuals read one moved matrix.
    """
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    a, b, c, d = x[0][0], x[0][1], x[1][0], x[1][1]
    # u(t1)^-1 x
    ra, rb = c1 * a - s1 * c, c1 * b - s1 * d
    rc, rd = s1 * a + c1 * c, s1 * b + c1 * d
    # ... u(t2)
    ya, yb = ra * c2 - rb * s2, ra * s2 + rb * c2
    yc, yd = rc * c2 - rd * s2, rc * s2 + rd * c2
    moved = ((ya, yb), (yc, yd))
    phase_plus = complex(math.cos(t2 + t1), -math.sin(t2 + t1))
    phase_minus = complex(math.cos(t1 - t2), -math.sin(t1 - t2))
    return (abs(plus(moved) - phase_plus * plus(x)),
            abs(minus(moved) - phase_minus * minus(x)))


def worst_float_residual(seed, draws=1000, **projectors):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(draws):
        t1, t2 = rng.uniform(0, 6.3), rng.uniform(0, 6.3)
        x = [[rng.uniform(-3, 3), rng.uniform(-3, 3)],
             [rng.uniform(-3, 3), rng.uniform(-3, 3)]]
        worst = max(worst, *float_equivariance(t1, t2, x, **projectors))
    return worst


def test_archimedean_equivariance():
    # the exact identity at the generators, and the float route at samples
    assert archimedean_equivariance() == []
    assert float_equivariance(0.0, 0.0, [[1.0, 0.5], [0.25, -1.0]]) == (0.0, 0.0)
    assert worst_float_residual(99) < 1e-12
    # the minus projector depends on t2 - t1 only
    x = [[1.0, 2.0], [3.0, 4.0]]
    assert float_equivariance(0.7, 0.7, x)[1] < 1e-12


def test_exact_projectors_are_the_trace_formulas():
    units = [[[int(2 * i + j == e) for j in range(2)] for i in range(2)] for e in range(4)]
    plus, minus = thetasupp._projectors()
    assert [complex(*v) for v in plus] == [p_plus(E) for E in units]
    assert [complex(*v) for v in minus] == [p_minus(E) for E in units]


def test_swapped_phases_fail_both_routes(monkeypatch):
    assert worst_float_residual(99, draws=100, plus=p_minus, minus=p_plus) > 0.1
    plus, minus = thetasupp._projectors()
    monkeypatch.setattr(thetasupp, "_projectors", lambda: (minus, plus))
    residuals = archimedean_equivariance()
    # each projector meets the other's phase at L2, on all four unit matrices
    assert len(residuals) == 8
    assert {(name, k) for name, k, _, _ in residuals} == {("P+", 2), ("P-", 2)}
    assert all(r != (0, 0) for *_, r in residuals)
