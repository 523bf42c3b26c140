"""Write the committed Chebyshev table of the left tail of S.

    python tools/make_s_table.py            # rewrite src/renewal_dst/_s_table.py
    python tools/make_s_table.py --check    # regenerate, exit 1 on any byte difference

S = sum_{k>=1} 2^(-k) Z_k with i.i.d. unit exponentials Z_k has
P(S <= t) = sum_k a_k (1 - exp(-2^k t)), a_k = b prod_{i<k} (1 - 2^i)^(-1).
Octave j = 0..OCTAVES - 1 covers t = m 2^(-j) with m in [1/2, 1), so
y = 4m - 3 runs over [-1, 1). For each octave this script evaluates
F = P(S <= t) in mpmath at the N first-kind Chebyshev points
y_i = cos(pi (i + 1/2) / N), at digits(j) decimal digits, which cover the
series' cancellation from order 1 down to F ~ 2^(-j(j-1)/2) with 35 to
spare. It takes E_j = round(log2 F) at the middle point y_(N/2)
and the coefficients c_0..c_(N-1) of the polynomial interpolating
log2 F - E_j at the y_i, each rounded once to binary64, so that
P(S <= t) = 2^(E_j + sum_k c_k T_k(y)).

mpmath is the only requirement (the package's test extra). The output is a
text block of float.hex values, one octave per line: E_j, then c_0..c_(N-1).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import mpmath as mp

N = 24          # coefficients per octave
OCTAVES = 43    # j = 0..42; F(2^-43) is below half the least subnormal
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "renewal_dst", "_s_table.py")

HEADER = '''\
"""Chebyshev table of P(S <= t) on 2^-43 <= t < 1, one octave per line.

Written by tools/make_s_table.py; rerun it rather than editing this file.
Line j covers t = m 2^-j, m in [1/2, 1): its first field is the integer
E_j, the next 24 the float.hex coefficients c_0..c_23 with
log2 P(S <= t) = E_j + sum_k c_k T_k(4m - 3). See limit_law._table_cdf.
"""

_TEXT = """\\
'''

FOOTER = '''\
"""

ROWS = tuple((int(row[0]), tuple(map(float.fromhex, row[1:])))
             for row in map(str.split, _TEXT.splitlines()))
'''


def digits(j: int) -> int:
    """Decimal digits for octave j. The series cancels from order 1 down to
    F, about 10^-(0.16 j^2 + 0.4 j) (10^-329 at t = 2^-43); the 65 more
    keep F to 35 digits or better on every octave."""
    return 65 + math.ceil(0.16 * j * j + 0.4 * j)


def _cdf(t, a):
    """P(S <= t) in mpmath at the working precision."""
    return mp.fsum(ak * -mp.expm1(-mp.ldexp(t, k))
                   for k, ak in enumerate(a, start=1))


def _mixture():
    """a_1, a_2, ... until |a_k| is below 2^-prec times 2^-1200."""
    tiny = mp.ldexp(1, -mp.mp.prec - 1200)
    b = mp.mpf(1)
    for i in range(1, mp.mp.prec + 20):
        b /= 1 - mp.ldexp(1, -i)
    a = [b]
    while abs(a[-1]) > tiny:
        a.append(a[-1] / (1 - mp.ldexp(1, len(a))))
    return a


def octave(j: int) -> tuple[int, list[float]]:
    """(E_j, [c_0, ..., c_(N-1)]) for octave j."""
    with mp.workdps(digits(j)):
        a = _mixture()
        ys = [mp.cos(mp.pi * (i + mp.mpf(1) / 2) / N) for i in range(N)]
        logs = [mp.log(_cdf(mp.ldexp((y + 3) / 4, -j), a), 2) for y in ys]
        e = int(mp.nint(logs[N // 2]))
        f = [v - e for v in logs]
        coeffs = []
        for k in range(N):
            s = mp.fsum(fi * mp.cos(mp.pi * k * (i + mp.mpf(1) / 2) / N)
                        for i, fi in enumerate(f))
            coeffs.append(float(s / N if k == 0 else 2 * s / N))
    return e, coeffs


def render() -> str:
    lines = []
    for j in range(OCTAVES):
        e, coeffs = octave(j)
        lines.append(" ".join([str(e)] + [c.hex() for c in coeffs]))
    return HEADER + "\n".join(lines) + "\n" + FOOTER


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="compare with the committed file instead of writing")
    args = p.parse_args(argv)
    text = render()
    if args.check:
        with open(OUT, encoding="utf-8") as f:
            same = f.read() == text
        print("table matches" if same else "table differs from the generator",
              file=sys.stderr)
        return 0 if same else 1
    with open(OUT, "w", encoding="utf-8") as f:
        f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
