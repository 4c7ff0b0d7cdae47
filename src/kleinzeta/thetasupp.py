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
The entries separate by the shift they read: c depends on neither, a on s
alone, d on t alone, and only b on both.  So a family meets its c rules
once, its a rules once per s and its d rules once per t, and forms the b
rules only for the (s, t) whose partial meet is not already empty.
Boolean arrays are built only for tuples whose support is not empty on
valuations.  A mask over the x grid is one bool array with x = 0 in its
last slot, and the grid's translate table gathers each orbit x + j/p.  One
grid per (p, box) serves every scan in the process, and it memoises the
cancellation mask of each support mask it sees; a grid whose table would
pass MAX_GRID_TRANSLATES entries is refused with BudgetExceeded.
PadicMat2 (integer numerators over one denominator), coset_rep and rho_act
stay as the brute-force route the tests hold the scanner to; the scanner
forms its kernels with the same PadicMat2 products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import EXACT_SCALARS, CyclotomicNumber, common_denominator
from .ffield import BudgetExceeded, is_prime

# ---------------------------------------------------------------------------
# exact 2x2 matrices


@dataclass(frozen=True)
class PadicMat2:
    """Exact rational 2x2 matrix: integer numerators a, b, c, d (row major)
    over one denominator den > 0, in lowest terms, so equal matrices compare
    equal."""
    a: int
    b: int
    c: int
    d: int
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        g = math.gcd(self.a, self.b, self.c, self.d, self.den)
        if self.den < 0:
            g = -g
        if g != 1:
            for name in ("a", "b", "c", "d", "den"):
                object.__setattr__(self, name, getattr(self, name) // g)

    @staticmethod
    def of(a, b, c, d) -> "PadicMat2":
        """The matrix of four ints or Fractions."""
        nums, den = common_denominator((a, b, c, d))
        return PadicMat2(*nums, den)

    @staticmethod
    def identity() -> "PadicMat2":
        return PadicMat2(1, 0, 0, 1)

    def __mul__(self, other: "PadicMat2") -> "PadicMat2":
        return PadicMat2(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d,
                         self.den * other.den)

    def scale(self, f) -> "PadicMat2":
        if not isinstance(f, EXACT_SCALARS):
            raise TypeError(f"matrix scale must be int or Fraction, got {f!r}")
        n = f.numerator
        return PadicMat2(self.a * n, self.b * n, self.c * n, self.d * n,
                         self.den * f.denominator)

    def det(self) -> Fraction:
        return Fraction(self.a * self.d - self.b * self.c, self.den * self.den)

    def inv(self) -> "PadicMat2":
        dt = self.a * self.d - self.b * self.c      # det * den^2
        if dt == 0:
            raise ZeroDivisionError("singular 2x2 matrix")
        k = self.den
        return PadicMat2(k * self.d, -k * self.b, -k * self.c, k * self.a, dt)

    def entries(self):
        return tuple(Fraction(e, self.den) for e in (self.a, self.b, self.c, self.d))


def rho_act(h1: PadicMat2, h2: PadicMat2, x: PadicMat2) -> PadicMat2:
    """rho(h1, h2) x = h1^-1 x h2, computed exactly."""
    return h1.inv() * x * h2


def e1_matrix(p: int) -> PadicMat2:
    return PadicMat2(0, 1, 0, 0, p)


def alpha_matrix(p: int) -> PadicMat2:
    return PadicMat2(1, 0, 0, -1, p)


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


def _upper(x) -> PadicMat2:
    return PadicMat2.of(1, x, 0, 1)


def _diag_pm(p: int, m: int) -> PadicMat2:
    return PadicMat2(p ** m, 0, 0, 1) if m >= 0 else PadicMat2(1, 0, 0, p ** -m, p ** -m)


def _weyl(p: int) -> PadicMat2:
    return PadicMat2(0, -1, p * p, 0)


def _fractional_shift_ok(p: int, s: Fraction) -> bool:
    return 0 <= s < 1 and (s == 0 or s.denominator == p)


def _h1_core(p: int, ty: str, m: int, s) -> PadicMat2:
    """h1 without its left factor U(x) and its scalar p^r."""
    h = _diag_pm(p, m)
    if _WEYL[ty][0]:
        h = h * _weyl(p) * _upper(s)
    return h


def _h2(p: int, ty: str, n: int, t) -> PadicMat2:
    h = _diag_pm(p, n)
    if _WEYL[ty][1]:
        h = h * _weyl(p) * _upper(t)
    return h


def coset_rep(p: int, params: CosetParams):
    """The exact pair (h1, h2) for the given coset parameters."""
    if not _fractional_shift_ok(p, params.s) or not _fractional_shift_ok(p, params.t):
        raise ValueError("s and t must lie in {0, 1/p, ..., (p-1)/p}")
    ty = params.type
    h1 = _upper(params.x) * _h1_core(p, ty, params.m, params.s)
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
    z = sum((CyclotomicNumber.zeta_pow(p, a) for a in range(p)), CyclotomicNumber.zero(p))
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


# Entries of the translate table _XGrid.targets; (p - 1) (grid size + 1)
# stays below it for every p <= 31 at the default box.
MAX_GRID_TRANSLATES = 2 ** 23


class _XGrid:
    """The scanned x values: u p^v laid out flat, one row of unit residues u
    per valuation v, and then x = 0.

    A mask over the grid is a bool array of length size + 1, with x = 0 in
    its last slot.  Row j - 1 of `targets` holds the position of the
    translate x + j/p of every point, x = 0 included; position size + 1
    stands for a translate off the grid (never happens with the default
    box) and is read through one appended False.

    Scans share one grid per (p, box) through _shared_grid, so its tables
    are read-only, and canceled() memoises its result per mask: the four
    default p = 11 scans cancel 60 masks, of which 5 are distinct.
    """

    def __init__(self, p: int, box: ScanBox):
        self.p, self.box = p, box
        self.mod = mod = p ** box.x_res_exponent
        self.vals = list(range(-box.x_val_range, box.x_val_range + 1))
        self.nu = (p - 1) * mod // p      # units mod p^e: none when e = 0
        self.size = len(self.vals) * self.nu
        translates = (p - 1) * (self.size + 1)
        if translates > MAX_GRID_TRANSLATES:
            raise BudgetExceeded(f"p = {p}: the x grid needs {translates} translates, "
                                 f"over the limit {MAX_GRID_TRANSLATES}")
        self.units = np.array([u for u in range(1, mod) if u % p], dtype=np.int64)
        self.unit_index = lut = np.full(mod, -1, dtype=np.int64)
        lut[self.units] = np.arange(self.nu)
        self.targets = np.empty((p - 1, self.size + 1), dtype=np.intp)
        for v in self.vals:
            for j in range(1, p):
                self.targets[j - 1, self.row(v)] = self.flat_index(*_translate(self, v, j))
        self.targets[:, self.size] = self.flat_index(np.full(p - 1, -1),
                                                     lut[np.arange(1, p) % mod])
        for table in (self.units, lut, self.targets):
            table.flags.writeable = False
        self._canceled = {}     # mask.tobytes() -> canceled(mask)

    def row(self, v: int) -> slice:
        k = v + self.box.x_val_range
        return slice(k * self.nu, (k + 1) * self.nu)

    def flat_index(self, vp: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Flat positions of (v', unit index) points; self.size + 1 marks a
        valuation v' outside the grid."""
        R = self.box.x_val_range
        return np.where(np.abs(vp) <= R, (vp + R) * self.nu + idx, self.size + 1)

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

    def canceled(self, mask: np.ndarray) -> np.ndarray:
        """Points whose whole orbit x + j/p (j = 0..p-1) stays in the mask,
        as a read-only array memoised on the mask's bytes."""
        key = mask.tobytes()
        out = self._canceled.get(key)
        if out is None:
            out = mask & np.append(mask, False)[self.targets].all(axis=0)
            out.flags.writeable = False
            self._canceled[key] = out
        return out

    def count(self, mask: np.ndarray) -> dict:
        sums = mask[:self.size].reshape(len(self.vals), self.nu).sum(axis=1)
        return {"zero": bool(mask[self.size]),
                "by_val": {v: int(c) for v, c in zip(self.vals, sums)}}

    def is_zp(self, mask: np.ndarray) -> bool:
        """Whether the mask is exactly Z_p: x = 0 and every v >= 0."""
        split = self.row(0).start
        return bool(mask[split:].all()) and not mask[:split].any()


@functools.lru_cache(maxsize=8)
def _shared_grid(p: int, box: ScanBox) -> _XGrid:
    """The one _XGrid of (p, box) that every scan in the process reads; a
    refused grid raises BudgetExceeded on every call, since lru_cache keeps
    no exceptions."""
    return _XGrid(p, box)


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


def _shifts(ty: str, p: int):
    """The numerators i of s = i/p and j of t = j/p: a shift is free only in
    the components that carry the Weyl factor."""
    return tuple(range(p) if weyl else range(1) for weyl in _WEYL[ty])


class _Scan:
    """One scan_type call: the x grid, the entry rules and the kernels of
    every family (type, m, n, r).

    With h1 = U(x) h1_0, the rho-image of y in {e1, alpha} is A_y + B_y x with
    A_y = h1_0^-1 y h2 and B_y = -h1_0^-1 e12 y h2.  The shifts s and t enter
    only through unipotent factors, A_y = U(-s) K_y U(t) and
    B_y = U(-s) K'_y U(t), where the kernels K_y, K'_y are A_y, B_y at
    s = t = 0.  There h1_0 = p^r H(m) and h2 = h2(n), so
    K_y = p^-r H^-1 (y h2) and K'_y = p^-r (-H^-1 e12) (y h2): the left
    factors depend on m alone and the right ones on n alone, and each is
    formed once.  Every (s, t) then costs a few integer operations on
    p^shift times the entries.
    """

    def __init__(self, p: int, ty: str, grid: _XGrid):
        self.p, self.type, self.grid = p, ty, grid
        self.rules = {}         # (na, nb, shift, entry) -> _entry_rule
        self.left = {}          # m -> (H^-1, -H^-1 e12)
        self.right = {}         # n -> (e1 h2, alpha h2)
        L1, L2 = lev_support(p)
        self.constraints = L1.constraints + L2.constraints

    def kernels(self, m: int, n: int, r: int):
        """The numerators of K_e1, K'_e1, K_alpha, K'_alpha and the shift:
        the kernels are the numerators over p^(shift - 2), shift - 2 >= 0 least."""
        p = self.p
        if m not in self.left:
            inv = _h1_core(p, self.type, m, 0).inv()
            self.left[m] = (inv, inv * PadicMat2(0, -1, 0, 0))
        if n not in self.right:
            h2 = _h2(p, self.type, n, 0)
            self.right[n] = (e1_matrix(p) * h2, alpha_matrix(p) * h2)
        f = Fraction(p) ** -r
        ks = [(a * b).scale(f) for b in self.right[n] for a in self.left[m]]
        den = max(k.den for k in ks)                # a power of p, so the lcm
        nums = [tuple(e * (den // k.den) for e in (k.a, k.b, k.c, k.d)) for k in ks]
        return nums, _split_p(p, den)[0] + 2

    def _meet(self, rule, shift: int, entries):
        """rule met with the rules of entries (e, na, nb), e the index of the
        constraint; None once the meet is empty on valuations."""
        zero, bits, tests = rule
        for e, na, nb in entries:
            if not zero and not bits:
                return None
            key = (na, nb, shift, e)
            got = self.rules.get(key)
            if got is None:
                got = _entry_rule(self.p, na, nb, shift, self.constraints[e], self.grid.vals)
                self.rules[key] = got
            zero = zero and got[0]
            bits &= got[1]
            tests += got[2]
        return (zero, bits, tests) if zero or bits else None

    def shift_rules(self, family, ivals, jvals) -> list:
        """The live shifts of a family among s = i/p, t = j/p (i in ivals, j
        in jvals): (i, j, rule) in scan order, rule the meet of the eight
        entry rules at (s, t), for every shift whose meet is not empty on
        valuations.

        The entries of p^2 U(-s) K U(t), K = (ka, kb, kc, kd), are
        a = p (p ka - kc i), b = (p ka - kc i) j + p (p kb - kd i),
        c = p^2 kc and d = p (kc j + p kd): c reads neither shift, a only i
        and d only j.  So c is met once per family, a once per i, d once per
        j, and b only for the pairs whose partial meet is still live.
        """
        p = self.p
        (KA1, KB1, KA2, KB2), shift = family
        full = (True, (1 << len(self.grid.vals)) - 1, ())

        def meet(rule, e, entry):
            # entry e of K_e1 + K'_e1 x, then of K_alpha + K'_alpha x
            return self._meet(rule, shift, [(e, entry(KA1), entry(KB1)),
                                            (e + 4, entry(KA2), entry(KB2))])

        base = meet(full, 2, lambda k: p * p * k[2])
        if base is None:
            return []
        s_rules = [(i, rule) for i in ivals
                   if (rule := meet(base, 0, lambda k: p * (p * k[0] - k[2] * i)))]
        if not s_rules:
            return []
        t_rules = [(j, rule) for j in jvals
                   if (rule := meet(full, 3, lambda k: p * (k[2] * j + p * k[3])))]
        live = []
        for i, (zs, bs, ts) in s_rules:
            for j, (zt, bt, tt) in t_rules:
                rule = meet((zs and zt, bs & bt, ts + tt), 1,
                            lambda k: (p * k[0] - k[2] * i) * j + p * (p * k[1] - k[3] * i))
                if rule:
                    live.append((i, j, rule))
        return live


def _materialize(grid: _XGrid, rule) -> np.ndarray:
    """The mask of a (zero, bits, tests) rule: arrays only for its live rows."""
    zero, bits, tests = rule
    mask = np.zeros(grid.size + 1, dtype=bool)
    mask[grid.size] = zero
    for k, v in enumerate(grid.vals):
        if bits >> k & 1:
            mask[grid.row(v)] = True
    for k, g, exact, a, b in tests:
        if bits >> k & 1:
            hit = grid.congruent(g, a, b)
            if exact:
                hit &= ~grid.congruent(g + 1, a, b)
            mask[grid.row(grid.vals[k])] &= hit
    return mask


def _combo_support_mask(p: int, params: CosetParams, grid: _XGrid) -> np.ndarray:
    """Support mask of one parameter tuple (x free), through its family's
    live shifts; a shift the family skips has the empty mask."""
    scan = _Scan(p, params.type, grid)
    family = scan.kernels(params.m, params.n, params.r)
    live = scan.shift_rules(family, [int(params.s * p)], [int(params.t * p)])
    if not live:
        return np.zeros(grid.size + 1, dtype=bool)
    return _materialize(grid, live[0][2])


def _beta_possible(params: CosetParams) -> bool:
    """Torus support of the Whittaker newform: diag(a, 1) values vanish off
    units.  Components carrying the Weyl factor are unconstrained here; a
    component without it is (scalar) U(x) diag(p^m, 1) or diag(p^n, 1)."""
    weyl1, weyl2 = _WEYL[params.type]
    return (weyl1 or params.m == 0) and (weyl2 or params.n == 0)


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
    ivals, jvals = _shifts(ty, p)
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
    grid = _shared_grid(p, box)
    scan = _Scan(p, ty, grid)
    ivals, jvals = _shifts(ty, p)
    scanned, nonempty, contrib_combos = 0, [], []
    for m, n, r in _families(ty, box):
        scanned += len(ivals) * len(jvals)
        for i, j, rule in scan.shift_rules(scan.kernels(m, n, r), ivals, jvals):
            mask = _materialize(grid, rule)
            if not mask.any():
                continue
            params = CosetParams(ty, m, n, r, Fraction(i, p), Fraction(j, p))
            survivors = mask & ~grid.canceled(mask)
            beta = _beta_possible(params)
            contributing = survivors if beta else np.zeros_like(mask)
            nonempty.append(ComboResult(
                m, n, r, str(params.s), str(params.t), beta,
                grid.count(mask), grid.count(contributing), not survivors.any()))
            if contributing.any():
                contrib_combos.append((params, contributing))
    claims = _evaluate_claims(ty, p, grid, contrib_combos, nonempty)
    # a box too small to certify proves nothing either way
    box_ok = box.radius >= 2 and box.x_val_range >= 2 and box.x_res_exponent >= 2
    if not box_ok:
        status = "inconclusive"
    else:
        status = "certified" if all(claims.values()) else "refuted"
    return ScanReport(p, ty, box, scanned, nonempty, claims, status)


def _evaluate_claims(ty, p, grid, contrib_combos, nonempty) -> dict:
    at_origin = all(
        (c.m, c.n, c.r) == (0, 0, 0) for c, _ in contrib_combos)
    zp_pattern = all(grid.is_zp(mask) for _, mask in contrib_combos)
    if ty == "I":
        return {
            "contributing_only_at_origin": at_origin and len(contrib_combos) == 1,
            "contributing_x_is_Zp": zp_pattern,
        }
    if ty == "II":
        stable = all(c.support_translation_stable for c in nonempty)
        return {"in_support_translation_stable_hence_canceled": stable,
                "no_surviving_contribution": len(contrib_combos) == 0}
    if ty == "III":
        return {"support_empty": not nonempty}
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
    return g.den == 1 and g.c % (p * p) == 0 and g.det() % p != 0


def default_invariance_samples(p: int):
    """Deterministic pairs from Gamma_0(p^2) x Gamma_0(p^2) with equal dets."""
    def L(c):
        return PadicMat2(1, 0, c, 1)

    # det(2 - p^2) pair is a p-adic unit for every odd p
    return [
        (PadicMat2.identity(), PadicMat2.identity()),
        (_upper(1), _upper(-1)),
        (_upper(3), _upper(-3)),
        (_upper(p), _upper(-p)),
        (L(p * p), PadicMat2.identity()),
        (PadicMat2.identity(), L(p * p)),
        (L(2 * p * p), L(-p * p)),
        (_upper(1) * L(p * p), L(p * p) * _upper(-2)),
        (PadicMat2(1, 0, 0, 2), PadicMat2(2, 0, 0, 1)),
        (PadicMat2(2, 1, p * p, 1), PadicMat2(1, 1, 0, 2 - p * p)),
    ]


def default_invariance_probes(p: int):
    e1, al = e1_matrix(p), alpha_matrix(p)
    return [
        (e1, al),
        (PadicMat2.identity(), PadicMat2.identity()),
        (e1.scale(p), al.scale(p)),
        (e1, PadicMat2.identity()),
        (PadicMat2(p, 1, p * p, 0, p), al),
        (PadicMat2(0, 1, 0, p, p), al.scale(-1)),
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

