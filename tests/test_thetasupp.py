import json
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta.cyclo import CyclotomicNumber
from kleinzeta.thetasupp import (COSET_TYPES, CosetParams, PadicMat2, ScanBox, alpha_matrix,
                                 archimedean_equivariance, char_sum, coset_rep,
                                 default_invariance_probes, e1_matrix, in_lattice,
                                 in_support_pair, lev_support, rho_act, scan_type,
                                 stabilizer_invariance_check, val_p)


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
    import math

    p = 5
    rng = random.Random(5)
    dens = [1, p, p * p, p ** 3, 2, 4, 3 * p]

    def rnd_entry():
        return Fraction(rng.randint(-12, 12), rng.choice(dens))

    def canonical(M, entries):
        assert M.den > 0 and math.gcd(M.a, M.b, M.c, M.d, M.den) == 1
        assert M.entries() == tuple(entries)
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
    assert h1.entries()[2] == p * p and h2.entries()[2] == 0
    h1, h2 = coset_rep(p, CosetParams("IV", 0, 0, 0, s=Fraction(1, p), t=Fraction(2, p)))
    assert h1.entries()[2] == p * p and h2.entries()[2] == p * p
    with pytest.raises(ValueError):
        CosetParams("I", 1, 0, 0)
    with pytest.raises(ValueError):
        coset_rep(p, CosetParams("II", 0, 2, 0, s=Fraction(1, 2)))
    with pytest.raises(ValueError):
        CosetParams("V", 0, 0, 0)


def test_char_sum_values():
    assert char_sum(11, 0) == CyclotomicNumber.one(11)
    for p in (3, 11):
        for v in range(1, 5):
            assert char_sum(p, v).is_zero()
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


def test_scan_masks_match_bruteforce_rho_evaluation():
    # oracle for the grouped/vectorized scanner: evaluate every grid point
    # directly with exact matrix arithmetic and compare membership bits.
    # Every (m, n, r, s, t) is checked, the shifts that the separable rules
    # skip (empty masks) included, so those really are empty.
    from kleinzeta.thetasupp import _XGrid, _combo_iter, _combo_support_mask

    for p, box in ((3, ScanBox(radius=2, x_val_range=2, x_res_exponent=2)),
                   (5, ScanBox(radius=1, x_val_range=2, x_res_exponent=2))):
        grid = _XGrid(p, box)
        sup = lev_support(p)
        e1, al = e1_matrix(p), alpha_matrix(p)
        empty = 0
        for ty in ("I", "II", "III", "IV"):
            for params in _combo_iter(ty, p, box):
                mask = _combo_support_mask(p, params, grid)
                empty += not mask.any()

                def direct(xval):
                    h1, h2 = coset_rep(p, CosetParams(params.type, params.m, params.n,
                                                      params.r, params.s, params.t, xval))
                    return in_support_pair(rho_act(h1, h2, e1), rho_act(h1, h2, al), sup)

                assert mask[grid.size] == direct(Fraction(0))
                for v in grid.vals:
                    for uidx, u in enumerate(grid.units):
                        expected = direct(Fraction(int(u)) * Fraction(p) ** v)
                        assert bool(mask[grid.row(v)][uidx]) == expected, (ty, params, v, u)
        assert empty > 0, p


def test_type_four_masks_match_bruteforce_rho_at_p11():
    # the same independent route at the paper's prime, on the default x grid:
    # every type IV family with |m|, |n|, |r| <= 1 and every (s, t), checked
    # at x = 0 and at 30 seeded random grid points
    from kleinzeta.thetasupp import _XGrid, _combo_iter, _combo_support_mask

    p = 11
    grid = _XGrid(p, ScanBox())
    sup = lev_support(p)
    e1, al = e1_matrix(p), alpha_matrix(p)
    rng = random.Random(20261018)
    members = 0
    for params in _combo_iter("IV", p, ScanBox(radius=1)):
        mask = _combo_support_mask(p, params, grid)

        def direct(xval):
            h1, h2 = coset_rep(p, CosetParams(params.type, params.m, params.n,
                                              params.r, params.s, params.t, xval))
            return in_support_pair(rho_act(h1, h2, e1), rho_act(h1, h2, al), sup)

        assert mask[grid.size] == direct(Fraction(0)), params
        for _ in range(30):
            v = rng.choice(grid.vals)
            uidx = rng.randrange(grid.nu)
            expected = direct(Fraction(int(grid.units[uidx])) * Fraction(p) ** v)
            assert bool(mask[grid.row(v)][uidx]) == expected, (params, v, uidx)
            members += expected
    assert members > 0   # the sample reaches the support, not only its complement


@pytest.mark.parametrize("p", [3, 11])
def test_family_kernels_match_coset_rep(p):
    # the kernels a scan builds from its memoised factors, against the
    # products of the brute-force coset representatives, entry by entry
    from kleinzeta.thetasupp import _families, _Scan, _XGrid

    box = ScanBox()
    grid = _XGrid(p, box)
    e12 = PadicMat2.of(0, 1, 0, 0)
    for ty in COSET_TYPES:
        scan = _Scan(p, ty, grid)
        for m, n, r in _families(ty, box):
            kernels, shift = scan.kernels(m, n, r)
            h1, h2 = coset_rep(p, CosetParams(ty, m, n, r))
            inv = h1.inv()
            exact = []
            for y in (e1_matrix(p), alpha_matrix(p)):
                exact += [inv * y * h2, (inv * e12 * y * h2).scale(-1)]
            scale = Fraction(p) ** (shift - 2)
            got = [tuple(Fraction(x) / scale for x in k) for k in kernels]
            assert got == [K.entries() for K in exact], (ty, m, n, r)
            # the least power of p clears the denominators
            denominators = {f.denominator for K in exact for f in K.entries()}
            assert max(denominators) == scale
        assert len(scan.left) <= 2 * box.radius + 1 and len(scan.right) <= 2 * box.radius + 1


def test_entry_rule_matches_constraint_pointwise():
    # the valuation/residue rule of one affine entry (na + nb x) / p^shift,
    # against EntryConstraint.satisfied at every grid point; the lev support
    # never leaves a residue-dependent row standing in the scans, so this is
    # where the residue tests (classes coarser and finer than the grid, and
    # a + b u = 0 exactly) are pinned
    from kleinzeta.thetasupp import EntryConstraint, _entry_rule, _materialize, _XGrid

    p = 3
    grid = _XGrid(p, ScanBox(radius=1, x_val_range=3, x_res_exponent=2))
    rng = random.Random(7)

    def rnd_entry():
        if rng.random() < 0.15:
            return 0
        return rng.choice([1, -1]) * rng.choice([1, 2, 4, 5, 7, 8, 13]) * p ** rng.randint(0, 3)

    cases = [(-5, 1, 0), (-5 * p, p, 1), (7, -7, 2)]   # a + b u vanishes at a grid unit
    cases += [(rnd_entry(), rnd_entry(), rng.randint(0, 3)) for _ in range(150)]
    residue_rows = 0
    for na, nb, shift in cases:
        for v_min in range(-2, 4):
            for exact in (False, True):
                con = EntryConstraint(v_min, exact)
                rule = _entry_rule(p, na, nb, shift, con, grid.vals)
                residue_rows += bool(rule[2])
                mask = _materialize(grid, rule)

                def direct(x):
                    return con.satisfied(p, (na + nb * x) / Fraction(p) ** shift)

                assert mask[grid.size] == direct(Fraction(0))
                for v in grid.vals:
                    for uidx, u in enumerate(grid.units):
                        expected = direct(Fraction(int(u)) * Fraction(p) ** v)
                        assert bool(mask[grid.row(v)][uidx]) == expected, (na, nb, shift, con, v, u)
    assert residue_rows > 100


def test_translate_table_matches_exact_translation():
    import numpy as np

    from kleinzeta.thetasupp import _XGrid

    p = 3
    # x_val_range 1: (u + j) / p reaches the top row v' = 1 for u + j = 9;
    # x_val_range 0: every translate leaves the grid, so all read the sentinel
    for R in (1, 0):
        grid = _XGrid(p, ScanBox(radius=1, x_val_range=R, x_res_exponent=2))

        def flat_position(y):
            v = val_p(p, y)
            if abs(v) > grid.box.x_val_range:
                return grid.size + 1
            unit = y / Fraction(p) ** v
            return grid.row(v).start + int(grid.unit_index[int(unit) % grid.mod])

        assert grid.targets.shape == (p - 1, grid.size + 1)
        for j in range(1, p):
            assert grid.targets[j - 1, grid.size] == flat_position(Fraction(j, p))
            for v in grid.vals:
                for uidx, u in enumerate(grid.units):
                    y = int(u) * Fraction(p) ** v + Fraction(j, p)
                    assert grid.targets[j - 1, grid.row(v).start + uidx] == flat_position(y)
    # off the grid reads False: no orbit of the full mask stays inside
    assert not grid.canceled(np.ones(grid.size + 1, dtype=bool)).any()


def test_xmask_zp_pattern_and_counts():
    import numpy as np

    from kleinzeta.thetasupp import _XGrid

    grid = _XGrid(3, ScanBox(radius=1, x_val_range=1, x_res_exponent=2))
    zp = np.zeros(grid.size + 1, dtype=bool)
    zp[grid.row(0).start:] = True      # every v >= 0, and x = 0 in the last slot
    assert grid.is_zp(zp)
    no_zero = zp.copy()
    no_zero[grid.size] = False
    assert not grid.is_zp(no_zero)
    partial = zp.copy()
    partial[grid.row(1).start] = False
    assert not grid.is_zp(partial)
    assert grid.count(partial) == {"zero": True, "by_val": {-1: 0, 0: 6, 1: 5}}
    negative = zp.copy()
    negative[0] = True
    assert not grid.is_zp(negative)
    empty = np.zeros(grid.size + 1, dtype=bool)
    assert grid.count(empty) == {"zero": False, "by_val": {-1: 0, 0: 0, 1: 0}}
    assert not grid.is_zp(empty)


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


def test_shared_grid_leaks_no_state_between_scans():
    # the four p = 11 scans share one grid and its cancellation memo; run in
    # reverse order from a fresh grid, each still gives its golden certificate
    import numpy as np

    from kleinzeta.thetasupp import _shared_grid

    golden = json.loads(GOLDEN_CERTIFICATES.read_text())
    _shared_grid.cache_clear()
    for ty in reversed(COSET_TYPES):
        rep = scan_type(11, ty, ScanBox())
        assert json.loads(json.dumps(rep.to_dict())) == golden[f"11-{ty}"], ty
    grid = _shared_grid(11, ScanBox())
    assert grid is _shared_grid(11, ScanBox())
    assert len(grid._canceled) == 5
    rng = np.random.default_rng(13)
    masks = [np.frombuffer(key, dtype=bool) for key in grid._canceled]
    masks += [rng.random(grid.size + 1) < 0.9 for _ in range(3)]
    for mask in masks:
        got = grid.canceled(mask.copy())
        fresh = mask & np.append(mask, False)[grid.targets].all(axis=0)
        assert not got.flags.writeable
        assert np.array_equal(got, fresh)
        assert grid.canceled(mask.copy()) is got
        with pytest.raises(ValueError):
            got[0] = not got[0]
    for table in (grid.units, grid.unit_index, grid.targets):
        assert not table.flags.writeable


def test_default_scans_entry_rule_count(monkeypatch):
    # operation-count guard: the separable shift rules form 1266 entry rules
    # over the four default p = 11 scans (per-shift evaluation formed 3760);
    # the pin allows 10% on top
    from kleinzeta import thetasupp

    calls = 0
    entry_rule = thetasupp._entry_rule

    def counted(*args):
        nonlocal calls
        calls += 1
        return entry_rule(*args)

    monkeypatch.setattr(thetasupp, "_entry_rule", counted)
    for ty in COSET_TYPES:
        scan_type(11, ty, ScanBox())
    assert 0 < calls <= 1392


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


def test_grid_refuses_a_translate_table_over_the_limit():
    from kleinzeta.ffield import BudgetExceeded
    from kleinzeta.thetasupp import MAX_GRID_TRANSLATES, _XGrid

    def translates(p):   # (p - 1) (9 (p^3 - p^2) + 1) at the default box
        return (p - 1) * (9 * (p ** 3 - p ** 2) + 1)

    assert translates(31) <= MAX_GRID_TRANSLATES < translates(37)
    for p in (37, 101):
        with pytest.raises(BudgetExceeded, match=f"{translates(p)} translates"):
            _XGrid(p, ScanBox())
    for _ in range(2):   # the shared grid caches no refusal
        with pytest.raises(BudgetExceeded):
            scan_type(101, "IV")


def test_scan_report_serializes():
    rep = scan_type(3, "IV", ScanBox(radius=2))
    d = rep.to_dict()
    assert d["type"] == "IV" and d["claims"]


def test_stabilizer_invariance():
    assert stabilizer_invariance_check(3)
    assert stabilizer_invariance_check(11)


def test_stabilizer_invariance_rejects_bad_samples():
    p = 11
    bad = (PadicMat2.of(1, 0, p, 1), PadicMat2.identity())  # only level p
    with pytest.raises(ValueError):
        stabilizer_invariance_check(p, samples=[bad])
    unequal = (PadicMat2.of(1, 0, 0, 2), PadicMat2.identity())
    with pytest.raises(ValueError):
        stabilizer_invariance_check(p, samples=[unequal])


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


def test_archimedean_equivariance():
    assert archimedean_equivariance(0.0, 0.0, [[1.0, 0.5], [0.25, -1.0]], "+") == 0.0
    rng = random.Random(99)
    worst = 0.0
    for _ in range(1000):
        t1, t2 = rng.uniform(0, 6.3), rng.uniform(0, 6.3)
        x = [[rng.uniform(-3, 3), rng.uniform(-3, 3)],
             [rng.uniform(-3, 3), rng.uniform(-3, 3)]]
        for sign in "+-":
            worst = max(worst, archimedean_equivariance(t1, t2, x, sign))
    assert worst < 1e-12
    # the minus projector depends on t2 - t1 only
    x = [[1.0, 2.0], [3.0, 4.0]]
    assert archimedean_equivariance(0.7, 0.7, x, "-") < 1e-12
    with pytest.raises(ValueError):
        archimedean_equivariance(0, 0, x, "x")

