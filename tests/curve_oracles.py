"""The curve builders that sum `Polynomial` terms, kept as the oracles of the
integer-array ones in `strata`.

`builtin_curves` and `curve_from_coeffs` are the code `strata` ran before
curves were drawn as integer coefficient arrays, unchanged: each coefficient
is `ring.constant(c) * t**i`, the terms are summed, and the products b*d,
-b*d^2 (`sl2_line`) and f*C (`upper_glN`) are `Polynomial` products.  Both
return `strata.Curve`s, so `substitution`, `label` and `special_values` of
the two routes compare directly.
"""

import random

from jtcalc.fields import GF, PolyRing
from jtcalc.strata import Curve


def curve_from_coeffs(chart, field, coeff_map, label="curve"):
    """Build a curve from {param: [c0, c1, ...]} integer coefficient lists."""
    ring1 = PolyRing(field, ("t",))
    t = ring1.var("t")
    subs = {}
    for v in chart.params:
        coeffs = coeff_map.get(v, [0])
        poly = ring1.zero()
        for i, cv in enumerate(coeffs):
            term = ring1.constant(cv) * t**i
            poly = poly + term
        subs[v] = poly
    return Curve(chart, subs, label)


def builtin_curves(chart, seed, count):
    """Seeded random curves satisfying the chart constraints identically."""
    field = GF(chart.p)
    ring1 = PolyRing(field, ("t",))
    t = ring1.var("t")
    rng = random.Random(seed)

    def rand_poly(max_deg=2):
        poly = ring1.zero()
        for i in range(max_deg + 1):
            poly = poly + ring1.constant(rng.randrange(chart.p)) * t**i
        return poly

    curves = []
    for idx in range(count):
        subs = {}
        if chart.name == "sl2_line":
            b = rand_poly()
            d = rand_poly()
            subs["a"] = b * d
            subs["b"] = b
            subs["c"] = -(b * d * d)
            for i in range(chart.r):
                subs[f"l{i}"] = rand_poly()
        elif chart.name == "upper_glN":
            # all B_s are polynomial multiples of one strictly upper C(t)
            n = chart.size
            centries = {
                (i, j): rand_poly(1) for i in range(n) for j in range(i + 1, n)
            }
            for sidx in range(chart.r):
                f = rand_poly(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        subs[f"b{sidx}_{i}{j}"] = f * centries[(i, j)]
        else:
            for v in chart.params:
                subs[v] = rand_poly()
        curves.append(Curve(chart, subs, label=f"{chart.name}-curve-{seed}-{idx}"))
    return curves
