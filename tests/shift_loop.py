"""Reference shift scan for the tests: the loop that meets the entry rules
of a, b and c at every shift (s, t) = (i/p, j/p) on its own, reading each
entry's valuations off its numerators, with no residue classes and no
memoised meets."""

from functools import lru_cache

from kleinzeta.thetasupp import _entry_rule, _val_int

_rule = lru_cache(maxsize=None)(_entry_rule)


def shift_rules(scan, family, ivals, jvals) -> list:
    """(i, j, rule) of every live shift of the family in scan order, as
    _Scan.shift_rules gives them: c met once, a once per i and b once per
    (i, j) whose partial meet is still live."""
    p = scan.p
    (KA1, KB1, KA2, KB2), shift = family

    def meet(rule, e, entry):
        zero, bits, marked = rule
        for con, A, B in ((e, KA1, KB1), (e + 4, KA2, KB2)):
            if not zero and not bits:
                return None
            got = _rule(_val_int(p, entry(A), shift), _val_int(p, entry(B), shift),
                        scan.constraints[con], scan.vals)
            zero = zero and got[0]
            bits &= got[1]
            marked |= got[2]
        return (zero, bits, marked) if zero or bits else None

    full = (True, (1 << len(scan.vals)) - 1 if scan.units else 0, 0)
    base = meet(full, 2, lambda k: p * p * k[2])
    if base is None:
        return []
    live = []
    for i in ivals:
        s_rule = meet(base, 0, lambda k: p * (p * k[0] - k[2] * i))
        if s_rule is None:
            continue
        for j in jvals:
            rule = meet(s_rule, 1,
                        lambda k: (p * k[0] - k[2] * i) * j + p * (p * k[1] - k[3] * i))
            if rule is not None:
                live.append((i, j, rule))
    return live
