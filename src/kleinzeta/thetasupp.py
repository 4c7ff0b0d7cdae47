"""Finite local analysis of the theta-lift Schwartz supports at an odd prime.

The orthogonal group side acts on pairs of 2x2 matrices by
rho(h1, h2) x = h1^-1 x h2.  The distinguished pair (e1, alpha) and the
entry-wise support lattices of the level Schwartz function phi^lev are
fixed here exactly over Q, and the double-coset representatives of

    Z_(e1,alpha) \\ H^1 / (Gamma_0(p^2) x Gamma_0(p^2))

come in four shapes (I-IV) parameterized by integers m, n, r, fractions
s, t with denominator p, and a free upper-triangular parameter x.  The
scanner classifies every parameter tuple in a finite box:

  * in-support      : rho-image of (e1, alpha) lies in the phi^lev support;
  * beta-possible   : the Whittaker newform factors are not forced to
                      vanish by their torus support (nonzero only on units);
  * canceled        : the whole translation orbit x + j/p (j mod p) stays
                      in support, so the oscillating character sum over the
                      orbit kills the contribution (sum of p-th roots of 1);
  * contributing    : in-support, beta-possible and not canceled.

x is scanned losslessly over {0} and u * p^v with u running over unit
residues mod p^3: all membership conditions here depend only on
valuations and residues mod small powers of p.

The scanner never multiplies matrices per tuple.  For each family
(type, m, n, r) it forms, once and exactly, the kernels K_y and K'_y with
rho-image(y) = U(-s) (K_y + K'_y x) U(t) for y in {e1, alpha}; the
unipotent factors give every entry in closed form as a bilinear integer
polynomial in the numerators of s and t.  Each entry is then decided by
valuations alone, except in the one row of the x grid where its two terms
have equal valuation: there membership is a residue class of the unit u.
Boolean arrays are built only for tuples whose support is not empty on
valuations.  PadicMat2, coset_rep and rho_act stay as the brute-force
route the tests hold the scanner to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import CyclotomicNumber
from .ffield import is_prime

# ---------------------------------------------------------------------------
# exact 2x2 matrices


@dataclass(frozen=True)
class PadicMat2:
    """Exact-rational 2x2 matrix with a reference prime."""
    p: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def of(p, a, b, c, d) -> "PadicMat2":
        return PadicMat2(p, Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def identity(p: int) -> "PadicMat2":
        return PadicMat2.of(p, 1, 0, 0, 1)

    def __mul__(self, other: "PadicMat2") -> "PadicMat2":
        return PadicMat2(self.p,
                         self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def scale(self, f) -> "PadicMat2":
        f = Fraction(f)
        return PadicMat2(self.p, self.a * f, self.b * f, self.c * f, self.d * f)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def inv(self) -> "PadicMat2":
        dt = self.det()
        if dt == 0:
            raise ZeroDivisionError("singular 2x2 matrix")
        return PadicMat2(self.p, self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def rho_act(h1: PadicMat2, h2: PadicMat2, x: PadicMat2) -> PadicMat2:
    """rho(h1, h2) x = h1^-1 x h2, computed exactly."""
    return h1.inv() * x * h2


def e1_matrix(p: int) -> PadicMat2:
    return PadicMat2.of(p, 0, Fraction(1, p), 0, 0)


def alpha_matrix(p: int) -> PadicMat2:
    return PadicMat2.of(p, Fraction(1, p), 0, 0, Fraction(-1, p))


def val_p(p: int, f: Fraction) -> int | None:
    """p-adic valuation of a rational; None for 0."""
    if f == 0:
        return None
    return _split_p(p, f.numerator)[0] - _split_p(p, f.denominator)[0]


# ---------------------------------------------------------------------------
# support lattices


@dataclass(frozen=True)
class EntryConstraint:
    v_min: int
    unit_exact: bool = False

    def satisfied(self, p: int, f: Fraction) -> bool:
        if f == 0:
            return not self.unit_exact
        v = val_p(p, f)
        return v == self.v_min if self.unit_exact else v >= self.v_min


@dataclass(frozen=True)
class LatticeSpec:
    """Per-entry valuation/unit constraints on a 2x2 matrix."""
    p: int
    constraints: tuple  # four EntryConstraint, row major

    def __post_init__(self):
        if len(self.constraints) != 4:
            raise ValueError("a 2x2 lattice needs four entry constraints")


def in_lattice(x: PadicMat2, L: LatticeSpec) -> bool:
    return all(c.satisfied(L.p, e) for c, e in zip(L.constraints, x.entries()))


def lev_support(p: int):
    """Support of phi^lev: ([Zp, p^-1 Zp; p Zp, Zp], [p^-1 Zp^x, p^-1 Zp; p Zp, p^-1 Zp^x])."""
    L1 = LatticeSpec(p, (EntryConstraint(0), EntryConstraint(-1),
                         EntryConstraint(1), EntryConstraint(0)))
    L2 = LatticeSpec(p, (EntryConstraint(-1, True), EntryConstraint(-1),
                         EntryConstraint(1), EntryConstraint(-1, True)))
    return L1, L2


def in_support_pair(x1: PadicMat2, x2: PadicMat2, supports) -> bool:
    L1, L2 = supports
    return in_lattice(x1, L1) and in_lattice(x2, L2)


# ---------------------------------------------------------------------------
# coset representatives


COSET_TYPES = ("I", "II", "III", "IV")
# whether h1 and h2 of each coset type carry the Weyl factor w U(s), w U(t)
_WEYL = {"I": (False, False), "II": (True, False), "III": (False, True), "IV": (True, True)}
# each type's family constraint n = m + 2r + shift
_N_SHIFT = {"I": 0, "II": 2, "III": -2, "IV": 0}


@dataclass(frozen=True)
class CosetParams:
    type: str
    m: int
    n: int
    r: int
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)
    x: Fraction = Fraction(0)

    def __post_init__(self):
        if self.type not in COSET_TYPES:
            raise ValueError(f"unknown coset type {self.type!r}")
        m, n, r = self.m, self.n, self.r
        if n != m + 2 * r + _N_SHIFT[self.type]:
            raise ValueError(f"type {self.type} constraint broken for (m,n,r)=({m},{n},{r})")


def _upper(p: int, x) -> PadicMat2:
    return PadicMat2.of(p, 1, x, 0, 1)


def _diag_pm(p: int, m: int) -> PadicMat2:
    return PadicMat2.of(p, Fraction(p) ** m, 0, 0, 1)


def _weyl(p: int) -> PadicMat2:
    return PadicMat2.of(p, 0, -1, p * p, 0)


def _fractional_shift_ok(p: int, s: Fraction) -> bool:
    return 0 <= s < 1 and (s == 0 or s.denominator == p)


def _h1_core(p: int, ty: str, m: int, s) -> PadicMat2:
    """h1 without its left factor U(x) and its scalar p^r."""
    h = _diag_pm(p, m)
    if _WEYL[ty][0]:
        h = h * _weyl(p) * _upper(p, s)
    return h


def _h2(p: int, ty: str, n: int, t) -> PadicMat2:
    h = _diag_pm(p, n)
    if _WEYL[ty][1]:
        h = h * _weyl(p) * _upper(p, t)
    return h


def coset_rep(p: int, params: CosetParams):
    """The exact pair (h1, h2) for the given coset parameters."""
    if not _fractional_shift_ok(p, params.s) or not _fractional_shift_ok(p, params.t):
        raise ValueError("s and t must lie in {0, 1/p, ..., (p-1)/p}")
    ty = params.type
    h1 = _upper(p, params.x) * _h1_core(p, ty, params.m, params.s)
    return h1.scale(Fraction(p) ** params.r), _h2(p, ty, params.n, params.t)


# ---------------------------------------------------------------------------
# additive character sums


def char_sum(p: int, v: int) -> CyclotomicNumber:
    """Sum of the standard additive character over p^-v Z / Z, in Q(zeta_p).

    For v >= 1 the sum factors through cosets of p^-1 Z / Z, so it is a
    multiple of sum_a zeta_p^a, which the exact cyclotomic reduction
    evaluates to zero; the v = 0 sum is the single term 1.
    """
    if not is_prime(p):
        raise ValueError("conductor must be prime")
    if v < 0:
        raise ValueError("v must be nonnegative")
    if v == 0:
        return CyclotomicNumber.one(p)
    z = CyclotomicNumber.zero(p)
    for a in range(p):
        z = z + CyclotomicNumber.zeta_pow(p, a)
    if v > 1 and not z.is_zero():
        raise ArithmeticError("coset folding needs the conductor-p sum to vanish")
    return z


# ---------------------------------------------------------------------------
# the box scanner


@dataclass(frozen=True)
class ScanBox:
    radius: int = 4          # |m|, |n|, |r| bound
    x_val_range: int = 4     # |v_p(x)| bound
    x_res_exponent: int = 3  # x units scanned mod p^this

    def __post_init__(self):
        # a negative bound scans nothing, which must not read as a refutation
        if min(self.radius, self.x_val_range, self.x_res_exponent) < 0:
            raise ValueError(f"scan box bounds must be >= 0: {self}")


class _XGrid:
    """The scanned x values: 0, and u p^v laid out flat, one row of unit
    residues u per valuation v."""

    def __init__(self, p: int, box: ScanBox):
        self.p = p
        self.box = box
        mod = p ** box.x_res_exponent
        self.mod = mod
        self.units = np.array([u for u in range(1, mod) if u % p], dtype=np.int64)
        self.nu = len(self.units)
        lut = np.full(mod, -1, dtype=np.int64)
        lut[self.units] = np.arange(self.nu)
        self.unit_index = lut
        self.vals = list(range(-box.x_val_range, box.x_val_range + 1))
        self.size = len(self.vals) * self.nu

    def row(self, v: int) -> slice:
        k = v + self.box.x_val_range
        return slice(k * self.nu, (k + 1) * self.nu)

    def flat_index(self, vp: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Flat positions of (v', unit index) points; self.size marks a
        valuation v' outside the grid."""
        R = self.box.x_val_range
        return np.where(np.abs(vp) <= R, (vp + R) * self.nu + idx, self.size)

    def congruent(self, g: int, a: int, b: int) -> np.ndarray:
        """The units u with v_p(a + b u) >= g, for b prime to p.

        That is u = -a/b mod p^g, tested on the integer representatives
        1 <= u < p^x_res_exponent, so a class finer than the grid holds at
        most its least representative.
        """
        if g <= 0:
            return np.ones(self.nu, dtype=bool)
        M = self.p ** g
        u0 = -a * pow(b, -1, M) % M
        if M <= self.mod:
            return self.units % M == u0
        if u0 >= self.mod:
            return np.zeros(self.nu, dtype=bool)
        return self.units == u0


def _translate(grid: _XGrid, v: int, j: int):
    """(v', unit index) of x + j/p for every x = u p^v on the grid; v' may
    lie past the scanned valuations."""
    p, mod = grid.p, grid.mod
    if v >= 0:
        # (u p^(v+1) + j) / p, numerator a unit mod p
        num = (grid.units * p ** (v + 1) + j) % mod
        return np.full(grid.nu, -1), grid.unit_index[num]
    if v < -1:
        num = (grid.units + j * p ** (-1 - v)) % mod
        return np.full(grid.nu, v), grid.unit_index[num]
    # v == -1: u + j may pick up extra powers of p
    Mw = grid.units + j
    w = np.zeros(grid.nu, dtype=np.int64)
    while True:
        div = Mw % p == 0
        if not div.any():
            break
        Mw[div] //= p
        w[div] += 1
    return w - 1, grid.unit_index[Mw % mod]


class _TranslateTable:
    """Gather indices for x -> x + j/p (j = 1..p-1) on the flat grid.

    Row j - 1 of `targets` holds the flat position of every point's
    translate, and `zero_targets[j - 1]` that of j/p itself.  Position
    grid.size stands for a translate off the grid (never happens with the
    default box) and always reads False.
    """

    def __init__(self, grid: _XGrid):
        p = grid.p
        js = np.arange(1, p)
        self.zero_targets = grid.flat_index(np.full(p - 1, -1), grid.unit_index[js % grid.mod])
        self.targets = np.empty((p - 1, grid.size), dtype=np.intp)
        for v in grid.vals:
            for j in range(1, p):
                self.targets[j - 1, grid.row(v)] = grid.flat_index(*_translate(grid, v, j))


class _XMask:
    """Boolean membership over the x grid: a flag for x = 0 and one flat
    array over the (v, u) points."""

    def __init__(self, grid: _XGrid, zero: bool, flat: np.ndarray):
        self.grid = grid
        self.zero = zero
        self.flat = flat

    @property
    def by_val(self) -> dict:
        return {v: self.flat[self.grid.row(v)] for v in self.grid.vals}

    def count(self):
        sums = self.flat.reshape(len(self.grid.vals), self.grid.nu).sum(axis=1)
        return {"zero": bool(self.zero),
                "by_val": {v: int(c) for v, c in zip(self.grid.vals, sums)}}

    def is_empty(self) -> bool:
        return not self.zero and not self.flat.any()

    def equals_zp_pattern(self) -> bool:
        split = self.grid.row(0).start
        return self.zero and bool(self.flat[split:].all()) and not self.flat[:split].any()


def _split_p(p: int, n: int):
    """n = unit * p^v for a nonzero integer n, as (v, unit)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _entry_rule(p: int, na: int, nb: int, shift: int, con: EntryConstraint, vals):
    """Membership of the affine entry (na + nb x) / p^shift over the x grid.

    Returns (zero, bits, tests): zero is the verdict at x = 0, bit k of bits
    is set when row vals[k] may hold members, and tests lists the one
    (k, g, exact, a, b) whose row depends on the unit u: there the members
    are the u with v_p(a + b u) >= g, or exactly g when exact.  Every other
    row is decided by the valuations alone.
    """
    vmin, exact = con.v_min, con.unit_exact

    def ok(w):
        return w == vmin if exact else w >= vmin

    if na == 0:
        zero = not exact
    else:
        vA, a = _split_p(p, na)
        vA -= shift
        zero = ok(vA)
    if nb == 0:
        return zero, (1 << len(vals)) - 1 if zero else 0, ()
    vB, b = _split_p(p, nb)
    vB -= shift
    bits, tests = 0, ()
    for k, v in enumerate(vals):
        w = vB + v                      # valuation of the slope term
        if na == 0 or w < vA:
            row = ok(w)
        elif w > vA:
            row = ok(vA)
        else:
            g = vmin - vA               # the unit part a + b u needs valuation g
            row = g >= 0 if exact else True
            if row and (exact or g > 0):
                tests = ((k, g, exact, a, b),)
        if row:
            bits |= 1 << k
    return zero, bits, tests


def _shift_ranges(ty: str, p: int):
    """The numerators i, j of s = i/p and t = j/p: a shift is free only in the
    components that carry the Weyl factor."""
    return tuple(range(p) if weyl else range(1) for weyl in _WEYL[ty])


def _closed_form(p: int, k, i: int, j: int):
    """p^2 * U(-i/p) K U(j/p), row major, for K given by its entries k."""
    ka, kb, kc, kd = k
    top = p * ka - kc * i                           # p (a - s c)
    return (p * top, top * j + p * (p * kb - kd * i), p * p * kc, p * (kc * j + p * kd))


def _integral(p: int, mats) -> tuple:
    """([entries], E) with mats = entries / p^E, E >= 0 least, for matrices
    over Z[1/p]; entries are row-major integer tuples."""
    D = max(f.denominator for M in mats for f in M.entries())
    return ([tuple(f.numerator * (D // f.denominator) for f in M.entries()) for M in mats],
            _split_p(p, D)[0])


def _int_mul(x, y) -> tuple:
    """Product of two row-major integer 2x2 matrices."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


class _ScanMemo:
    """What the families of one scan_type call share: the x grid, the entry
    rules and the kernel factors.

    At x = s = t = 0 the pair is h1_0 = p^r H(m), h2 = h2(n), so the kernels
    split as K_y = p^-r H^-1 (y h2) and K'_y = p^-r (-H^-1 e12) (y h2).  The
    left factors depend on m alone and the right ones on n alone; each is
    formed once, exactly, and kept as integers over a power of p.
    """

    def __init__(self, p: int, ty: str, grid: _XGrid):
        self.p, self.type, self.grid = p, ty, grid
        self.rules = {}         # (na, nb, shift, entry) -> _entry_rule
        self.left = {}          # m -> _integral([H^-1, -H^-1 e12])
        self.right = {}         # n -> _integral([e1 h2, alpha h2])
        L1, L2 = lev_support(p)
        self.constraints = L1.constraints + L2.constraints

    def kernels(self, m: int, n: int, r: int):
        """The numerators of K_e1, K'_e1, K_alpha, K'_alpha and the shift:
        the kernels are the numerators over p^(shift - 2), shift - 2 >= 0 least."""
        p = self.p
        if m not in self.left:
            inv = _h1_core(p, self.type, m, 0).inv()
            self.left[m] = _integral(p, [inv, inv * PadicMat2.of(p, 0, -1, 0, 0)])
        if n not in self.right:
            h2 = _h2(p, self.type, n, 0)
            self.right[n] = _integral(p, [e1_matrix(p) * h2, alpha_matrix(p) * h2])
        (lefts, el), (rights, er) = self.left[m], self.right[n]
        nums = [_int_mul(a, b) for b in rights for a in lefts]
        e = el + er + r                             # kernels = nums / p^e
        g = min(_split_p(p, x)[0] for k in nums for x in k if x)
        target = max(0, e - g)
        if target >= e:
            f = p ** (target - e)
            nums = [tuple(x * f for x in k) for k in nums]
        else:
            f = p ** (e - target)
            nums = [tuple(x // f for x in k) for k in nums]
        return nums, target + 2


class _Family:
    """One coset family (type, m, n, r) and all of its (s, t) = (i/p, j/p).

    With h1 = U(x) h1_0, the rho-image of y in {e1, alpha} is A_y + B_y x with
    A_y = h1_0^-1 y h2 and B_y = -h1_0^-1 e12 y h2.  The shifts s and t enter
    only through unipotent factors, A_y = U(-s) K_y U(t) and
    B_y = U(-s) K'_y U(t), where the kernels K_y, K'_y are A_y, B_y at
    s = t = 0.  They come from the scan's memo (_ScanMemo.kernels); every
    (s, t) then costs a few integer operations on p^shift times the entries.
    """

    def __init__(self, memo: _ScanMemo, m: int, n: int, r: int):
        self.p, self.type, self.m, self.n, self.r = memo.p, memo.type, m, n, r
        self.grid = memo.grid
        self.rules = memo.rules
        self.constraints = memo.constraints
        self.kernels, self.shift = memo.kernels(m, n, r)
        self.ivals, self.jvals = _shift_ranges(memo.type, memo.p)

    def rule(self, i: int, j: int):
        """The meet of the eight entry rules at (s, t) = (i/p, j/p)."""
        p, shift, grid = self.p, self.shift, self.grid
        zero, bits, tests = True, (1 << len(grid.vals)) - 1, ()
        KA1, KB1, KA2, KB2 = self.kernels
        entries = _closed_form(p, KA1, i, j) + _closed_form(p, KA2, i, j)
        slopes = _closed_form(p, KB1, i, j) + _closed_form(p, KB2, i, j)
        for e, (na, nb) in enumerate(zip(entries, slopes)):
            key = (na, nb, shift, e)
            rule = self.rules.get(key)
            if rule is None:
                rule = _entry_rule(p, na, nb, shift, self.constraints[e], grid.vals)
                self.rules[key] = rule
            zero = zero and rule[0]
            bits &= rule[1]
            if not zero and not bits:
                break
            tests += rule[2]
        return zero, bits, tests

    def params(self, i: int, j: int) -> CosetParams:
        return CosetParams(self.type, self.m, self.n, self.r,
                           Fraction(i, self.p), Fraction(j, self.p))


def _materialize(grid: _XGrid, rule) -> _XMask:
    """The mask of a (zero, bits, tests) rule: arrays only for its live rows."""
    zero, bits, tests = rule
    flat = np.zeros(grid.size, dtype=bool)
    for k, v in enumerate(grid.vals):
        if bits >> k & 1:
            flat[grid.row(v)] = True
    for k, g, exact, a, b in tests:
        if bits >> k & 1:
            hit = grid.congruent(g, a, b)
            if exact:
                hit &= ~grid.congruent(g + 1, a, b)
            flat[grid.row(grid.vals[k])] &= hit
    return _XMask(grid, zero, flat)


def _combo_support_mask(p: int, params: CosetParams, grid: _XGrid) -> _XMask:
    """Support mask of one parameter tuple (x free), through its family."""
    fam = _Family(_ScanMemo(p, params.type, grid), params.m, params.n, params.r)
    return _materialize(grid, fam.rule(int(params.s * p), int(params.t * p)))


def _beta_possible(params: CosetParams) -> bool:
    """Torus support of the Whittaker newform: diag(a, 1) values vanish off
    units.  Components carrying the Weyl factor are unconstrained here; a
    component without it is (scalar) U(x) diag(p^m, 1) or diag(p^n, 1)."""
    weyl1, weyl2 = _WEYL[params.type]
    return (weyl1 or params.m == 0) and (weyl2 or params.n == 0)


def _canceled_mask(mask: _XMask, table: _TranslateTable) -> _XMask:
    """Points whose whole orbit x + j/p (j = 0..p-1) stays in support."""
    ext = np.append(mask.flat, False)
    zero = mask.zero and bool(ext[table.zero_targets].all())
    return _XMask(mask.grid, zero, mask.flat & ext[table.targets].all(axis=0))


def _difference(a: _XMask, b: _XMask) -> _XMask:
    """Points of a not in b."""
    return _XMask(a.grid, a.zero and not b.zero, a.flat & ~b.flat)


@dataclass
class ComboResult:
    m: int
    n: int
    r: int
    s: str
    t: str
    beta_possible: bool
    in_support: dict
    contributing: dict
    support_translation_stable: bool


@dataclass
class ScanReport:
    p: int
    type: str
    box: ScanBox
    combos_scanned: int
    nonempty: list
    claims: dict
    status: str

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "type": self.type,
            "box": {"radius": self.box.radius, "x_val_range": self.box.x_val_range,
                    "x_res_exponent": self.box.x_res_exponent},
            "combos_scanned": self.combos_scanned,
            "nonempty_support": [vars(c) for c in self.nonempty],
            "claims": self.claims,
            "status": self.status,
        }


def _families(ty: str, box: ScanBox):
    """(m, n, r) of every family of the type inside the box, m outer, r inner."""
    R = box.radius
    shift = _N_SHIFT[ty]
    for m in range(-R, R + 1):
        for r in range(-R, R + 1):
            n = m + 2 * r + shift
            if abs(n) <= R:
                yield m, n, r


def _combo_iter(ty: str, p: int, box: ScanBox):
    ivals, jvals = _shift_ranges(ty, p)
    for m, n, r in _families(ty, box):
        for i in ivals:
            for j in jvals:
                yield CosetParams(ty, m, n, r, Fraction(i, p), Fraction(j, p))


def scan_type(p: int, ty: str, box: ScanBox = ScanBox()) -> ScanReport:
    """Exhaustive classification of one coset type over the box."""
    if p == 2 or not is_prime(p):
        raise ValueError("the scan needs an odd prime")
    if ty not in COSET_TYPES:
        raise ValueError(f"unknown coset type {ty!r}")
    grid = _XGrid(p, box)
    table = _TranslateTable(grid)
    memo = _ScanMemo(p, ty, grid)
    nonempty = []
    scanned = 0
    support_empty = True
    all_stable = True
    contrib_combos = []
    for m, n, r in _families(ty, box):
        fam = _Family(memo, m, n, r)
        for i in fam.ivals:
            for j in fam.jvals:
                scanned += 1
                rule = fam.rule(i, j)
                if not rule[0] and not rule[1]:
                    continue
                mask = _materialize(grid, rule)
                if mask.is_empty():
                    continue
                support_empty = False
                params = fam.params(i, j)
                canceled = _canceled_mask(mask, table)
                survivors = _difference(mask, canceled)
                stable = survivors.is_empty()
                all_stable = all_stable and stable
                beta = _beta_possible(params)
                if beta:
                    contributing = survivors
                else:
                    contributing = _XMask(grid, False, np.zeros(grid.size, dtype=bool))
                nonempty.append(ComboResult(
                    m, n, r, str(params.s), str(params.t), beta,
                    mask.count(), contributing.count(), stable))
                if not contributing.is_empty():
                    contrib_combos.append((params, contributing))
    claims = _evaluate_claims(ty, p, contrib_combos, support_empty, all_stable)
    box_ok = box.radius >= 2 and box.x_val_range >= 2 and box.x_res_exponent >= 2
    if all(claims.values()):
        status = "certified" if box_ok else "inconclusive"
    else:
        status = "refuted"
    return ScanReport(p, ty, box, scanned, nonempty, claims, status)


def _evaluate_claims(ty, p, contrib_combos, support_empty, all_stable) -> dict:
    at_origin = all(
        (c.m, c.n, c.r) == (0, 0, 0) for c, _ in contrib_combos)
    zp_pattern = all(mask.equals_zp_pattern() for _, mask in contrib_combos)
    if ty == "I":
        return {
            "contributing_only_at_origin": at_origin and len(contrib_combos) == 1,
            "contributing_x_is_Zp": zp_pattern,
        }
    if ty == "II":
        return {"in_support_translation_stable_hence_canceled": all_stable,
                "no_surviving_contribution": len(contrib_combos) == 0}
    if ty == "III":
        return {"support_empty": support_empty}
    # Type IV: survivors exactly at the origin with s + t integral.  Every
    # in-support tuple off that set must be translation stable, i.e. canceled;
    # with no beta filter here, "canceled or contributing" is how the scan
    # classifies, so the claims below pin the survivors completely.
    st_ok = all((c.s + c.t).denominator == 1 for c, _ in contrib_combos)
    st_complete = len(contrib_combos) == p  # (0,0) and the p-1 pairs summing to 1
    return {
        "contributing_only_at_origin": at_origin,
        "contributing_x_is_Zp": zp_pattern,
        "contributing_s_plus_t_integral": st_ok and st_complete,
    }


# ---------------------------------------------------------------------------
# stabilizer / invariance checks


def _is_gamma0_p2(g: PadicMat2, p: int) -> bool:
    ents = g.entries()
    if any(e.denominator != 1 for e in ents):
        return False
    if int(g.c) % (p * p) != 0:
        return False
    return int(g.det()) % p != 0


def default_invariance_samples(p: int):
    """Deterministic pairs from Gamma_0(p^2) x Gamma_0(p^2) with equal dets."""
    def U(x):
        return _upper(p, x)

    def L(c):
        return PadicMat2.of(p, 1, 0, c, 1)

    # det(2 - p^2) pair is a p-adic unit for every odd p
    return [
        (PadicMat2.identity(p), PadicMat2.identity(p)),
        (U(1), U(-1)),
        (U(3), U(-3)),
        (U(p), U(-p)),
        (L(p * p), PadicMat2.identity(p)),
        (PadicMat2.identity(p), L(p * p)),
        (L(2 * p * p), L(-p * p)),
        (U(1) * L(p * p), L(p * p) * U(-2)),
        (PadicMat2.of(p, 1, 0, 0, 2), PadicMat2.of(p, 2, 0, 0, 1)),
        (PadicMat2.of(p, 2, 1, p * p, 1), PadicMat2.of(p, 1, 1, 0, 2 - p * p)),
    ]


def default_invariance_probes(p: int):
    e1, al = e1_matrix(p), alpha_matrix(p)
    return [
        (e1, al),
        (PadicMat2.identity(p), PadicMat2.identity(p)),
        (e1.scale(p), al.scale(p)),
        (e1, PadicMat2.identity(p)),
        (PadicMat2.of(p, 1, Fraction(1, p), p, 0), al),
        (PadicMat2.of(p, 0, Fraction(1, p), 0, 1), al.scale(-1)),
        (e1.scale(Fraction(1, p)), al),
    ]


def stabilizer_invariance_check(p: int, samples=None, probes=None) -> bool:
    """Support stability of phi^lev under sampled Gamma_0(p^2)^2 pairs."""
    samples = default_invariance_samples(p) if samples is None else samples
    probes = default_invariance_probes(p) if probes is None else probes
    sup = lev_support(p)
    for g1, g2 in samples:
        if not (_is_gamma0_p2(g1, p) and _is_gamma0_p2(g2, p)):
            raise ValueError("sample pair is not in Gamma_0(p^2) x Gamma_0(p^2)")
        if g1.det() != g2.det():
            raise ValueError("sample pair does not have equal determinants")
        for x1, x2 in probes:
            before = in_support_pair(x1, x2, sup)
            after = in_support_pair(rho_act(g1, g2, x1), rho_act(g1, g2, x2), sup)
            if before != after:
                return False
    return True


# ---------------------------------------------------------------------------
# archimedean equivariance


def p_plus(x) -> complex:
    """Tr(x * [[-i, -1], [-1, i]])."""
    a, b, c, d = x[0][0], x[0][1], x[1][0], x[1][1]
    return -(b + c) - 1j * (a - d)


def p_minus(x) -> complex:
    """Tr(x * [[i, 1], [-1, i]])."""
    a, b, c, d = x[0][0], x[0][1], x[1][0], x[1][1]
    return (c - b) + 1j * (a + d)


def archimedean_equivariance(t1: float, t2: float, x, sign: str) -> float:
    """Residual of the rotation equivariance of the P+- projectors.

    With u_t = [[cos t, sin t], [-sin t, cos t]] and the action
    x -> u_(t1)^-1 x u_(t2), P+ picks up the phase e^(-i(t2 + t1)) and
    P- picks up e^(-i(t1 - t2)).
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
    if sign == "+":
        phase = complex(math.cos(t2 + t1), -math.sin(t2 + t1))
        return abs(p_plus(moved) - phase * p_plus(x))
    if sign == "-":
        phase = complex(math.cos(t1 - t2), -math.sin(t1 - t2))
        return abs(p_minus(moved) - phase * p_minus(x))
    raise ValueError("sign must be '+' or '-'")

