"""The mixture judges as they were before they judged on ints: reference
copies of `axioms._judge_mixture_continuity` (axiom 5) and
`axioms._judge_independence` (axioms 7 and 11).

Each mixture is built as an `Alternative` from its `Fraction` utilities and
compared through `prefers` in a menu of `Alternative`s: judge 5 appends
each grid mixture to the menu, and the independence judge mixes every
member with h.  The optimized judges must give the same verdicts and the
same `Finding`s.
"""

from fractions import Fraction

from wregret.axioms import MIXTURE_DENOMINATOR, MIXTURE_GRID, Finding, Instance
from wregret.decisions import Alternative, PreferenceOracle


def mix(p: Fraction, f: Alternative, h: Alternative) -> Alternative:
    return Alternative("mixture", tuple(p * a + (1 - p) * b for a, b in zip(f.profile, h.profile)))


def _enlarge(menu: tuple, act: Alternative) -> tuple:
    return menu if act in menu else menu + (act,)


def judge_mixture_continuity(o: PreferenceOracle, inst: Instance):
    f, g, h, menu = inst.acts["f"], inst.acts["g"], inst.acts["h"], inst.menu
    if o.prefers(f, g, menu) <= 0 or o.prefers(g, h, menu) <= 0:
        return "vacuous"
    q_found = None
    for q in reversed(MIXTURE_GRID):  # near 1 first: mixtures close to f
        mixed = mix(q, f, h)
        if o.prefers(mixed, g, _enlarge(menu, mixed)) > 0:
            q_found = q
            break
    r_found = None
    for r in MIXTURE_GRID:  # near 0 first: mixtures close to h
        mixed = mix(r, f, h)
        if o.prefers(g, mixed, _enlarge(menu, mixed)) > 0:
            r_found = r
            break
    if q_found is not None and r_found is not None:
        return "pass"
    return Finding(params={"q": q_found, "r": r_found, "grid_denominator": MIXTURE_DENOMINATOR})


def judge_independence(o: PreferenceOracle, inst: Instance):
    f, g, h, menu, p = inst.acts["f"], inst.acts["g"], inst.acts["h"], inst.menu, inst.params["p"]
    mixed_menu = tuple(mix(p, a, h) for a in menu)
    mf, mg = mix(p, f, h), mix(p, g, h)
    if o.prefers(f, g, menu) == o.prefers(mf, mg, mixed_menu):
        return "pass"
    return Finding({
        "f": o.rate(f, menu), "g": o.rate(g, menu),
        "mixed_f": o.rate(mf, mixed_menu), "mixed_g": o.rate(mg, mixed_menu),
    })


JUDGES = {"5": judge_mixture_continuity, "7": judge_independence, "11": judge_independence}
