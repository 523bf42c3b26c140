"""Write the committed polynomial table of the left tail of S.

    python tools/make_s_table.py            # rewrite src/renewal_dst/_s_table.py
    python tools/make_s_table.py --check    # regenerate, exit 1 on any byte difference

S = sum_{k>=1} 2^(-k) Z_k with i.i.d. unit exponentials Z_k has
P(S <= t) = sum_k a_k (1 - exp(-2^k t)), a_k = b prod_{i<k} (1 - 2^i)^(-1).
Octave j = 0..OCTAVES - 1 covers t = m 2^(-j) with m in [1/2, 1), cut into
PIECES pieces m in [1/2 + p/16, 1/2 + (p + 1)/16), p = 0..7; on piece p,
y = 2 (16 m - 8 - p) - 1 runs over [-1, 1). For each piece this script
evaluates F = P(S <= t) in mpmath at the N first-kind Chebyshev points
y_i = cos(pi (i + 1/2) / N), at digits(j) decimal digits, which cover the
series' cancellation from order 1 down to F ~ 2^(-j(j-1)/2) with 35 to
spare. It takes E = round(log2 F) at the point y_(N/2), interpolates
log2 F - E at the y_i by a polynomial of degree N - 1 (its Chebyshev
coefficients, then its monomial coefficients, all in mpmath) and rounds
each monomial coefficient once to binary64, so that
P(S <= t) = 2^(E + sum_k c_k y^k) for a Horner evaluation.

mpmath is the only requirement (the package's test extra); the run takes
30 to 40 s. The output is a text block, one piece per line, row 8 j + p:
E, then c_0..c_(N-1), each as the 16 hex digits of its IEEE-754 binary64
bits, big-endian: bytes.fromhex and struct parse the table in about a
third of the time float.fromhex takes, and the shorter text compiles
faster too.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys

import mpmath as mp

N = 16          # coefficients per piece
PIECES = 8      # pieces per octave
OCTAVES = 43    # j = 0..42; F(2^-43) is below half the least subnormal
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "renewal_dst", "_s_table.py")

HEADER = '''\
"""Polynomial table of P(S <= t) on 2^-43 <= t < 1, eight pieces an octave.

Written by tools/make_s_table.py; rerun it rather than editing this file.
Line 8 j + p covers t = m 2^-j, m in [1/2 + p/16, 1/2 + (p + 1)/16): its
first field is the integer E, the next 16 the coefficients c_0..c_15 with
log2 P(S <= t) = E + sum_k c_k y^k, y = 2 (16 m - 8 - p) - 1, each the hex
of its IEEE-754 binary64 bits, big-endian. See limit_law._table_cdf.
"""

import struct

_TEXT = """\\
'''

FOOTER = '''\
"""

ROWS = tuple((int(e), struct.unpack(">16d", bytes.fromhex(coeffs)))
             for e, coeffs in (line.split(" ", 1)
                               for line in _TEXT.splitlines()))
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


def _monomial(cheb):
    """The monomial coefficients of sum_k cheb_k T_k(y), exactly."""
    out = [mp.mpf(0)] * len(cheb)
    t_prev, t_cur = [1], [0, 1]        # T_0, T_1 as integer coefficients
    for k, ck in enumerate(cheb):
        tk = t_prev if k == 0 else t_cur
        for i, ti in enumerate(tk):
            out[i] += ck * ti
        if k >= 1:                     # T_(k+1) = 2 y T_k - T_(k-1)
            nxt = [0] + [2 * ti for ti in t_cur]
            for i, ti in enumerate(t_prev):
                nxt[i] -= ti
            t_prev, t_cur = t_cur, nxt
    return out


def piece(j: int, p: int) -> tuple[int, list[float]]:
    """(E, [c_0, ..., c_(N-1)]) for piece p of octave j."""
    with mp.workdps(digits(j)):
        a = _mixture()
        ys = [mp.cos(mp.pi * (i + mp.mpf(1) / 2) / N) for i in range(N)]
        logs = [mp.log(_cdf(mp.ldexp(PIECES + p + (y + 1) / 2, -4 - j), a), 2)
                for y in ys]
        e = int(mp.nint(logs[N // 2]))
        f = [v - e for v in logs]
        cheb = []
        for k in range(N):
            s = mp.fsum(fi * mp.cos(mp.pi * k * (i + mp.mpf(1) / 2) / N)
                        for i, fi in enumerate(f))
            cheb.append(s / N if k == 0 else 2 * s / N)
        return e, [float(c) for c in _monomial(cheb)]


def render() -> str:
    lines = []
    for j in range(OCTAVES):
        for p in range(PIECES):
            e, coeffs = piece(j, p)
            lines.append(" ".join([str(e)] + [struct.pack(">d", c).hex()
                                              for c in coeffs]))
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
