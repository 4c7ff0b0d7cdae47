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

x runs over {0} and u p^v, |v| <= x_val_range, with u over the unit
residues mod p^x_res_exponent.  A support set is a pair (zero, bits): the
verdict at x = 0, and bit k set when the row v = vals[k], every u p^v, lies
in it.  That loses nothing, since every rule decides each row on
valuations for all its units at once (below); the counts, the
cancellation of each orbit x + j/p and the Z_p pattern then follow from
the rows in closed form.

The scanner never multiplies matrices per tuple.  For each family
(type, m, n, r) it forms, once and in integers, the kernels K_y and K'_y
with rho-image(y) = U(-s) (K_y + K'_y x) U(t) for y in {e1, alpha}; the
unipotent factors give every entry in closed form as a bilinear integer
polynomial in the numerators of s and t.  The kernels stay over the power
of p their factors give: a common power of p in every term and in the
shift moves no valuation the rules read, so it is never cancelled.  Each
entry is then decided by the valuations of its two terms alone (one rule
per pair and constraint), except in the one row where the two valuations
tie and membership depends on the unit u: _entry_rule marks that row, no
marked row survives the meet (the proof is in _Scan.shift_rules),
and scan_type raises ArithmeticError if one does, so the check fails
rather than guess.  The entries separate by the shift they read: c depends
on neither, a on s alone and b on both, and a term's valuation depends
only on the residue class of the shift numerator it reads (the lemma is
in _Scan.shift_rules).  So a family meets its c rules once, its a rules
once per class of s, and its b rules once per class of t for each s whose
partial meet is not already empty.  Entry d gets no rule: a, b and c of
both images imply both d constraints (also proved there).  A scan counts
and cancels each distinct row set once, spells s and t from their
numerators, and keeps the integers (m, n, r, i, j) of each contributing
tuple for its claims, with s = i/p and t = j/p, so it builds no Fraction.
PadicMat2 (integer numerators over one denominator) holds the coset
factors the kernels are formed from.  The stabilizer check is a proof over
all of Gamma_0(p^2)^2, by valuations (stabilizer_invariance_check).  The
brute-force route the tests hold the scanner and that proof to, rho_act on
exact matrices, the lattice test and the coset pair (h1, h2) of a tuple,
lives in tests/brute_rho.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ffield import is_prime
from .poly import at_zeta

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

    def __mul__(self, other: "PadicMat2") -> "PadicMat2":
        return PadicMat2(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d,
                         self.den * other.den)

    def inv(self) -> "PadicMat2":
        dt = self.a * self.d - self.b * self.c      # det * den^2
        if dt == 0:
            raise ZeroDivisionError("singular 2x2 matrix")
        k = self.den
        return PadicMat2(k * self.d, -k * self.b, -k * self.c, k * self.a, dt)


def _val_int(p: int, n: int, shift: int = 0) -> int | None:
    """v_p(n) - shift for an integer n; None for n = 0."""
    if n == 0:
        return None
    v = -shift
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# support lattices


@dataclass(frozen=True)
class EntryConstraint:
    v_min: int
    unit_exact: bool = False

    def satisfied(self, v: int | None) -> bool:
        """Whether an entry of valuation v (None for the entry 0) meets it."""
        if v is None:
            return not self.unit_exact
        return v == self.v_min if self.unit_exact else v >= self.v_min


def lev_support(p: int):
    """Support of phi^lev, as the constraints (row major) on the entries of
    each component: ([Zp, p^-1 Zp; p Zp, Zp], [p^-1 Zp^x, p^-1 Zp; p Zp, p^-1 Zp^x])."""
    return ((EntryConstraint(0), EntryConstraint(-1), EntryConstraint(1), EntryConstraint(0)),
            (EntryConstraint(-1, True), EntryConstraint(-1), EntryConstraint(1),
             EntryConstraint(-1, True)))


# ---------------------------------------------------------------------------
# coset representatives


COSET_TYPES = ("I", "II", "III", "IV")
# whether h1 and h2 of each coset type carry the Weyl factor w U(s), w U(t)
_WEYL = {"I": (False, False), "II": (True, False), "III": (False, True), "IV": (True, True)}
# each type's family constraint n = m + 2r + shift
_N_SHIFT = {"I": 0, "II": 2, "III": -2, "IV": 0}


def _diag_pm(p: int, m: int) -> PadicMat2:
    return PadicMat2(p ** m, 0, 0, 1) if m >= 0 else PadicMat2(1, 0, 0, p ** -m, p ** -m)


def _weyl(p: int) -> PadicMat2:
    return PadicMat2(0, -1, p * p, 0)


def _coset_core(p: int, weyl: bool, e: int) -> PadicMat2:
    """diag(p^e, 1), times w when the component carries the Weyl factor: h1
    at s = 0 without its left factor U(x) and its scalar p^r (e = m), or h2
    at t = 0 (e = n)."""
    h = _diag_pm(p, e)
    return h * _weyl(p) if weyl else h


# ---------------------------------------------------------------------------
# additive character sums


def char_sum(p: int, v: int) -> list:
    """Sum of the standard additive character over p^-v Z / Z, in Q(zeta_p),
    as its p - 1 coordinates over 1, zeta_p, ..., zeta_p^(p-2) (poly.at_zeta).

    For v >= 1 the sum factors through cosets of p^-1 Z / Z, so it is a
    multiple of sum_a zeta_p^a, the list of p ones in Z[z]/(z^p - 1), whose
    coordinates at zeta_p are zero; the v = 0 sum is the single term 1.
    """
    if not is_prime(p):
        raise ValueError("conductor must be prime")
    if v < 0:
        raise ValueError("v must be nonnegative")
    if v == 0:
        return at_zeta([1] + [0] * (p - 1))
    return at_zeta([1] * p)


# ---------------------------------------------------------------------------
# the box scanner


@dataclass(frozen=True)
class ScanBox:
    radius: int = 4          # |m|, |n|, |r| bound
    # |v_p(x)| bound; by default max(radius, 4), so that the rows v(x) >= -k
    # of the in-support family (-k, -k, 0) fit for every k <= radius
    x_val_range: int | None = None
    x_res_exponent: int = 3  # x units scanned mod p^this

    def __post_init__(self):
        if self.x_val_range is None:
            object.__setattr__(self, "x_val_range", max(self.radius, 4))
        # a negative bound scans nothing, which must not read as a refutation
        if min(self.radius, self.x_val_range, self.x_res_exponent) < 0:
            raise ValueError(f"scan box bounds must be >= 0: {self}")


def _entry_rule(vA: int | None, vB: int | None, con: EntryConstraint, vals):
    """Membership of an affine entry A + B x on the rows of x, read off the
    valuations vA of A and vB of B (None for a zero term).

    Returns (zero, bits, marked): zero is the verdict at x = 0, and bit k of
    bits is set when row vals[k], every x = u p^v with v = vals[k] and u a
    unit, may hold members.  The valuations decide every row for all its
    units at once, except the one row where the two terms have equal
    valuation and the verdict needs v_p(a + b u), a and b the unit parts of
    A and B; that row is set both in bits and in the bitmask marked, for
    the meet to see.
    """
    zero = con.satisfied(vA)
    if vB is None:
        return zero, (1 << len(vals)) - 1 if zero else 0, 0
    bits = marked = 0
    for k, v in enumerate(vals):
        w = vB + v                      # valuation of the slope term
        if vA is None or w < vA:
            row = con.satisfied(w)
        elif w > vA:
            row = zero                  # the constant term decides
        else:
            g = con.v_min - vA          # the unit part a + b u needs valuation g
            row = g >= 0 if con.unit_exact else True
            if row and (con.unit_exact or g > 0):
                marked |= 1 << k
        if row:
            bits |= 1 << k
    return zero, bits, marked


def _shifts(ty: str, p: int):
    """The numerators i of s = i/p and j of t = j/p: a shift is free only in
    the components that carry the Weyl factor."""
    return tuple(range(p) if weyl else range(1) for weyl in _WEYL[ty])


class _Scan:
    """One scan_type call: the rows of x, the entry rules and the kernels of
    every family (type, m, n, r).

    With h1 = U(x) h1_0, the rho-image of y in {e1, alpha} is A_y + B_y x with
    A_y = h1_0^-1 y h2 and B_y = -h1_0^-1 e12 y h2.  The shifts s and t enter
    only through unipotent factors, A_y = U(-s) K_y U(t) and
    B_y = U(-s) K'_y U(t), where the kernels K_y, K'_y are A_y, B_y at
    s = t = 0.  There h1_0 = p^r H(m) and h2 = h2(n), so
    K_y = p^-r H^-1 (y h2) and K'_y = p^-r (-H^-1 e12) (y h2): the left
    factors depend on m alone and the right ones on n alone, and each is
    formed once.  Every (s, t) then costs a few integer operations on
    p^shift times the entries.  A common power of p in those integers is
    harmless: it raises each term's valuation and the shift alike
    (kernels), so it is never cancelled.
    """

    def __init__(self, p: int, ty: str, box: ScanBox):
        self.p, self.type, self.box = p, ty, box
        self.vals = range(-box.x_val_range, box.x_val_range + 1)
        self.units = (p - 1) * p ** box.x_res_exponent // p     # per row; none when e = 0
        self.rules = {}         # (vA, vB, entry) -> _entry_rule
        self.meets = {}         # (rule, entry, valuations) -> _meet
        self.left = {}          # m -> ((H^-1, -H^-1 e12) numerators, v_p(den))
        self.right = {}         # n -> ((e1 h2, alpha h2) numerators, v_p(den))
        L1, L2 = lev_support(p)
        self.constraints = L1 + L2

    def kernels(self, m: int, n: int, r: int):
        """The numerators of K_e1, K'_e1, K_alpha, K'_alpha and the shift:
        the kernels are the numerators over p^(shift - 2).

        The factors are kept as integer numerators over a power of p, one
        exponent per pair, so the products and p^-r stay in integers.  The
        common power of p is left in: scaling every term and the shift by one
        p^c changes no valuation v_p(f0 + f1 u) - shift and no special residue
        -u0 u1^-1 mod p (shift_rules), so no rule, meet or verdict reads it."""
        p = self.p
        if m not in self.left:      # H^-1 and -H^-1 e12 = [[0, -a], [0, -c]]
            h = _coset_core(p, _WEYL[self.type][0], m).inv()
            self.left[m] = ((h.a, h.b, h.c, h.d), (0, -h.a, 0, -h.c)), _val_int(p, h.den)
        if n not in self.right:     # e1 h2 and alpha h2, both over p den
            h = _coset_core(p, _WEYL[self.type][1], n)
            self.right[n] = ((h.c, h.d, 0, 0), (h.a, h.b, -h.c, -h.d)), _val_int(p, h.den) + 1
        (lefts, dl), (rights, dr) = self.left[m], self.right[n]
        f, e = p ** max(-r, 0), dl + dr + max(r, 0)     # p^-r = f / p^max(r, 0)
        return [(f * (a * w + b * y), f * (a * x + b * z), f * (c * w + d * y), f * (c * x + d * z))
                for w, x, y, z in rights for a, b, c, d in lefts], e + 2

    def _meet(self, rule, e: int, vals):
        """rule met with the rules of entry e of both images; None once the
        meet is empty on valuations.  vals = (vA1, vB1, vA2, vB2) are the
        valuations of the entry's constant and slope terms in the e1 image
        (constraint e) and in the alpha image (constraint e + 4).  Rules are
        keyed by the entry's two valuations."""
        zero, bits, marked = rule
        for key in ((vals[0], vals[1], e), (vals[2], vals[3], e + 4)):
            if not zero and not bits:
                return None
            got = self.rules.get(key)
            if got is None:
                got = self.rules[key] = _entry_rule(key[0], key[1], self.constraints[key[2]],
                                                    self.vals)
            zero = zero and got[0]
            bits &= got[1]
            marked |= got[2]
        return (zero, bits, marked) if zero or bits else None

    def _live_residues(self, rule, e: int, shift: int, terms, n: int) -> list:
        """(t, meet) in increasing t for every t in range(n), n = 1 or p, at
        which rule met with entry e is live.  The entry's four terms are
        (f0 + f1 t) / p^shift, given as the pairs (f0, f1) in the order of the
        family's kernels.  Each residue class of t (shift_rules) is met once,
        at one representative, and a meet is memoised by its valuations."""
        p, classes, generic = self.p, {0}, 0
        if n > 1:
            for f0, f1 in terms:
                w = _val_int(p, f0)
                if w is not None and w == _val_int(p, f1):
                    classes.add(-(f0 // p ** w) * pow(f1 // p ** w, -1, p) % p)
            generic = next((t for t in range(1, n) if t not in classes), 0)
            classes.add(generic)
        met = {}
        for t in classes:
            key = (rule, e, tuple([_val_int(p, f0 + f1 * t, shift) for f0, f1 in terms]))
            if key not in self.meets:
                self.meets[key] = self._meet(*key)
            met[t] = self.meets[key]
        other = met[generic]
        return [(t, got) for t in (range(n) if other else sorted(met))
                if (got := met.get(t, other))]

    def shift_rules(self, family, ivals, jvals) -> list:
        """The live shifts of a family among s = i/p, t = j/p (i in ivals, j
        in jvals, each range(p) or range(1) as _shifts gives them):
        (i, j, rule) in scan order, rule = (zero, bits, marked) the meet of
        the entry rules of a, b and c of both images at (s, t), for every
        shift whose meet is not empty on valuations.

        The entries of p^2 U(-s) K U(t), K = (ka, kb, kc, kd), are
        a = p (p ka - kc i), b = (p ka - kc i) j + p (p kb - kd i) and
        c = p^2 kc: c reads neither shift, a reads i alone, and for a fixed
        i, b is affine in j.  Each term of a meet is so some f0 + f1 u with
        integers f0, f1 and u = i or j over the residues [0, p), and its
        valuation depends only on the class of u:
          * at u = 0 it is v(f0);
          * at every unit u it is min(v(f0), v(f1)), except when
            v(f0) = v(f1) = w.  Then f0 + f1 u = p^w (u0 + u1 u) with units
            u0, u1, and at the one special residue u = -u0 u1^-1 mod p the
            valuation is higher; it is computed exactly there.
        So a family meets its c rules once, its a rules once per class of i
        (u = 0, the generic units and at most four special residues, one
        per term), and, for each live i, its b rules once per class of j.
        The meets are memoised by their valuation keys, and the residues of
        a class whose meet is empty are never visited.

        Entry d (constraints 3 and 7) needs no rule: on the coset
        representatives, a, b and c of both images decide it.  Write
        x1 = h1^-1 e1 h2 and x2 = h1^-1 alpha h2.  Since alpha E12 = e1,
        x1 = x2 M with M = h2^-1 E12 h2.
          * Types I and II, h2 = diag(p^n, 1): x1 = [[0, a2 p^-n], [0, c2 p^-n]].
            L1's b (v >= -1) with v(a2) = -1 gives n <= 0, so L2's c gives
            v(d1) = v(c2) - n >= 1.
          * Types III and IV, h2 = diag(p^n, 1) w U(t): M = -p^(2-n) U(-t) E21 U(t),
            whose second column is t times its first, so d1 = t c1.  With
            v(t) >= -1 and L1's c (v(c1) >= 1), v(d1) >= 0.
          * det h1 = det h2 (the n = m + 2r + _N_SHIFT constraint), so
            det x2 = det alpha = -p^-2.  With v(a2) = -1 and v(b2 c2) >= 0,
            v(a2 d2) = -2 and v(d2) = -1 exactly.

        No marked row survives the meet, so every live row set is exact for
        all units of its rows, and is that of all eight constraints.  Since
        e12 e1 = 0 and -e12 alpha = e1, K'_e1 = 0 and K'_alpha = K_e1: x1
        reads no x and x2 = A2 + x x1.  So only entries of x2 have marked
        rows, and a live meet has x1 in L1.  With k = 1 - m - r:
          * I: x1 = p^(k-2) E12 and A2 = p^(-r-1) diag(p^(n-m), -1).  Only
            x2's b reads x, and it has no constant term: nothing is marked.
          * II: x2 = p^(-r-1) [[s p^(n-m), s p^-m x - p^-2], [-p^(n-m), -p^-m x]].
            Its a and c read no x.  v(a) = -1 needs s != 0 and n - m - r = 1,
            v(c) >= 1 needs n - m - r >= 2: a and c meet in the empty set.
          * III: x2 = [[p^k x, p^k t x - p^(r-3)], [-p^(1-r), -p^(1-r) t]]
            (n = m + 2r - 2).  c needs r <= 0.  a has no constant term and
            admits the one row v(x) = -1 - k; b is marked only in the row
            v(x) = r - 2 - k (t != 0), which is that row only when r = 1.
          * IV: x1 = p^k [[s, s t], [-1, -t]], so x2's c is -p^k x and
            admits only the rows v(x) >= 1 - k.  a = s p^k x - p^(-r-1) is
            marked only in the row v(x) = -r - k, and only when r >= 0; b,
            whose slope has valuation k - 2, only in a row
            v(x) = v(b(0)) + 2 - k with v(b(0)) <= -2.  Both lie below 1 - k.
        A sweep test over p <= 31 checks this on the scanner, and scan_type
        raises ArithmeticError if a marked row ever survives.
        """
        p = self.p
        kernels, shift = family
        # x = 0 and every row; no row holds a point when no unit is scanned
        full = (True, (1 << len(self.vals)) - 1 if self.units else 0, 0)
        c = [(p * p * k[2], 0) for k in kernels]
        a = [(p * p * k[0], -p * k[2]) for k in kernels]
        live = []
        for _, base in self._live_residues(full, 2, shift, c, 1):
            for i, s_rule in self._live_residues(base, 0, shift, a, len(ivals)):
                b = [(p * (p * k[1] - k[3] * i), p * k[0] - k[2] * i) for k in kernels]
                live += ((i, j, rule)
                         for j, rule in self._live_residues(s_rule, 1, shift, b, len(jvals)))
        return live

    def count(self, zero: bool, bits: int) -> dict:
        """The points of the row set (zero, bits): x = 0 and, per valuation,
        how many units."""
        return {"zero": zero,
                "by_val": {v: self.units * (bits >> k & 1) for k, v in enumerate(self.vals)}}

    def uncanceled(self, zero: bool, bits: int) -> dict:
        """count() of the points of the row set whose orbit x + j/p
        (j = 1..p-1) leaves it; a translate past the scanned valuations
        lies outside.

        Every translate of x = 0 or of a row v >= 0 lies in row -1, and
        those of a row v < -1 stay in the row.  In row -1, x = u/p
        (1 <= u < p^e, e the residue exponent) has p - 2 translates in the
        row and one integral translate ceil(u/p), which runs p - 1 times
        over 1..p^(e-1); it lies in row v_p(ceil(u/p)).
        """
        p, R = self.p, self.box.x_val_range
        top = self.units // (p - 1)     # p^(e-1), or 0 when e = 0

        def has(v):
            return abs(v) <= R and bits >> (v + R) & 1

        by_val = {}
        for v in self.vals:
            if not has(v) or v < -1:
                by_val[v] = 0
            elif v >= 0:
                by_val[v] = 0 if has(-1) else self.units
            else:   # the c in 1..top with v_p(c) = t, for each row t off the set
                by_val[v] = (p - 1) * sum(top // p ** t - top // p ** (t + 1)
                                          for t in range(self.box.x_res_exponent) if not has(t))
        return {"zero": zero and not has(-1), "by_val": by_val}


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


def scan_type(p: int, ty: str, box: ScanBox = ScanBox()) -> ScanReport:
    """Exhaustive classification of one coset type over the box."""
    if p == 2 or not is_prime(p):
        raise ValueError("the scan needs an odd prime")
    if ty not in COSET_TYPES:
        raise ValueError(f"unknown coset type {ty!r}")
    scan = _Scan(p, ty, box)
    ivals, jvals = _shifts(ty, p)
    weyl1, weyl2 = _WEYL[ty]
    nothing = scan.count(False, 0)
    row_sets = {}       # (zero, bits) -> (count, uncanceled, translation stable)
    scanned, nonempty, contrib_combos = 0, [], []
    for m, n, r in _families(ty, box):
        scanned += len(ivals) * len(jvals)
        # torus support of the Whittaker newform: diag(a, 1) values vanish off
        # units, so a component without the Weyl factor, (scalar) U(x)
        # diag(p^m, 1) or diag(p^n, 1), needs exponent 0
        beta = (weyl1 or m == 0) and (weyl2 or n == 0)
        for i, j, (zero, bits, marked) in scan.shift_rules(scan.kernels(m, n, r), ivals, jvals):
            if (zero, bits) not in row_sets:
                survivors = scan.uncanceled(zero, bits)
                row_sets[zero, bits] = (scan.count(zero, bits), survivors, not survivors["zero"]
                                        and not any(survivors["by_val"].values()))
            points, survivors, stable = row_sets[zero, bits]
            # s = i/p and t = j/p are in lowest terms for 0 < i, j < p
            nonempty.append(ComboResult(m, n, r, f"{i}/{p}" if i else "0", f"{j}/{p}" if j else "0",
                                        beta, points, survivors if beta else nothing, stable))
            if bits & marked:
                rows = [v for k, v in enumerate(scan.vals) if (bits & marked) >> k & 1]
                raise ArithmeticError(f"type {ty} (m, n, r, i, j) = {(m, n, r, i, j)}: the "
                                      f"valuations leave the rows v(x) = {rows} undecided")
            if beta and not stable:
                contrib_combos.append(((m, n, r, i, j), survivors))
    # Z_p: x = 0 and every row v >= 0
    zp = scan.count(True, (1 << len(scan.vals)) - (1 << box.x_val_range))
    claims = _evaluate_claims(ty, p, zp, contrib_combos, nonempty)
    # a box too small to certify proves nothing either way
    box_ok = box.radius >= 2 and box.x_val_range >= 2 and box.x_res_exponent >= 2
    if not box_ok:
        status = "inconclusive"
    else:
        status = "certified" if all(claims.values()) else "refuted"
    return ScanReport(p, ty, box, scanned, nonempty, claims, status)


def _evaluate_claims(ty, p, zp, contrib_combos, nonempty) -> dict:
    """contrib_combos holds ((m, n, r, i, j), uncanceled points) of each
    contributing tuple, with s = i/p and t = j/p."""
    at_origin = all(combo[:3] == (0, 0, 0) for combo, _ in contrib_combos)
    zp_pattern = all(points == zp for _, points in contrib_combos)
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
    st_ok = all((i + j) % p == 0 for (*_, i, j), _ in contrib_combos)
    st_complete = len(contrib_combos) == p  # (0,0) and the p-1 pairs summing to 1
    return {
        "contributing_only_at_origin": at_origin,
        "contributing_x_is_Zp": zp_pattern,
        "contributing_s_plus_t_integral": st_ok and st_complete,
    }


# ---------------------------------------------------------------------------
# stabilizer invariance


# the valuation class of each entry of every g in Gamma_0(p^2), row major:
# a and d units, b integral, c in p^2 Z_p
_GAMMA0_P2 = (EntryConstraint(0, True), EntryConstraint(0), EntryConstraint(2),
              EntryConstraint(0, True))


def _rho_invariant(lattice) -> bool:
    """Whether the valuation classes alone put g1^-1 X g2 in lattice (four
    entry constraints) for every X in it and all g1, g2 in Gamma_0(p^2).
    False when the bounds fall short, which need not mean that a pair
    moves some X out."""
    g = _GAMMA0_P2
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # entry (i, j) sums g1^-1[i, k] X[k, l] g2[l, j] over k and l: the
        # lower bound of each term, and whether it is inexact
        terms = sorted((g[2 * i + k].v_min + lattice[2 * k + l].v_min + g[2 * l + j].v_min,
                        not (g[2 * i + k].unit_exact and lattice[2 * k + l].unit_exact
                             and g[2 * l + j].unit_exact))
                       for k in (0, 1) for l in (0, 1))
        (low, inexact), second = terms[0], terms[1][0]
        con = lattice[2 * i + j]
        if low < con.v_min or con.unit_exact and (low > con.v_min or inexact or second == low):
            return False
    return True


def stabilizer_invariance_check(p: int) -> bool:
    """Support stability of phi^lev under all of Gamma_0(p^2)^2, by valuations.

    Every g in Gamma_0(p^2) has unit diagonal entries a and d, an integral
    b and c in p^2 Z_p (_GAMMA0_P2).  det g is a unit, so
    g^-1 = det^-1 [[d, -b], [-c, a]] has the same entry classes.  Each entry
    of g1^-1 X g2 is a sum of four terms g1^-1[i, k] X[k, l] g2[l, j].  A
    term's valuation is at least the sum of its factors' lower bounds, and
    equals it when all three factors have exact valuation; a sum's
    valuation is at least the least of its terms', and equals it when one
    term alone attains that bound exactly and every other lies above it.
    So when these bounds meet each entry constraint of a component of
    lev_support (a unit-exact entry needs its one least term exact at
    v_min), rho(g1, g2) maps that component into itself, for every pair and
    every p.  The inverse pair lies in Gamma_0(p^2)^2 too, so rho(g1, g2)
    maps each component onto itself, and a pair (x1, x2) lies in the
    support exactly when its image does.  The bounds may fall short of a
    truly invariant set, so a False would prove nothing; for lev_support
    they hold, and with c in p Z_p (Gamma_0(p)) they do not."""
    return all(_rho_invariant(lattice) for lattice in lev_support(p))


# ---------------------------------------------------------------------------
# archimedean equivariance


def _projectors() -> tuple:
    """(P+, P-) on the unit matrices E11, E12, E21, E22, as Gaussian
    integers (re, im): P+(x) = Tr(x [[-i, -1], [-1, i]]) and
    P-(x) = Tr(x [[i, 1], [-1, i]])."""
    return (((0, -1), (-1, 0), (-1, 0), (0, 1)),
            ((0, 1), (-1, 0), (1, 0), (0, 1)))


def archimedean_equivariance() -> list:
    """The nonzero residuals of the rotation equivariance of P+ and P-, exactly.

    u_t = [[cos t, sin t], [-sin t, cos t]] is exp(tJ) with
    J = [[0, 1], [-1, 0]], so x -> u(t1)^-1 x u(t2) is exp(t1 L1 + t2 L2)
    with L1 x = -J x and L2 x = x J, which commute.  A functional with
    P o L_k = lam_k P has P o L_k^n = lam_k^n P, hence
    P(u(t1)^-1 x u(t2)) = e^(lam1 t1 + lam2 t2) P(x) for every t1, t2 and
    x.  The phases e^(-i(t1 + t2)) of P+ and e^(-i(t1 - t2)) of P- are
    lam = (-i, -i) and (-i, +i), and the identities are linear in x, so the
    16 values P(L_k E) - lam_k P(E) over the four unit matrices E decide
    them.  Each is a Gaussian integer (re, im); the list holds
    (projector, k, E index, residual) of each nonzero one.
    """
    generators = (lambda a, b, c, d: (-c, -d, a, b),    # L1 x = -J x
                  lambda a, b, c, d: (-b, a, -d, c))    # L2 x = x J
    residuals = []
    for name, P, signs in zip(("P+", "P-"), _projectors(), ((-1, -1), (-1, 1))):
        for k, (L, s) in enumerate(zip(generators, signs), 1):
            for e, (pre, pim) in enumerate(P):
                moved = L(*(int(j == e) for j in range(4)))
                re = sum(v * w for v, (w, _) in zip(moved, P))
                im = sum(v * w for v, (_, w) in zip(moved, P))
                # lam_k P(E) = s i (pre + i pim) = (-s pim, s pre)
                residual = (re + s * pim, im - s * pre)
                if residual != (0, 0):
                    residuals.append((name, k, e, residual))
    return residuals
