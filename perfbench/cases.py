"""Fixed seeded layer cases that no CLI run reaches.

* `det_rational` (fraction-free Bareiss) at sizes 8, 16 and 32, and
  `det_berkowitz` at sizes 8 and 16, on random rational matrices with the
  entry distribution of the repository's determinant cross-check.
* `InverseSeries` multiplication with k = 1, 2 and 3 inverse variables.  The
  CLI clamps series k to 2.  Operands are a modified-moment series and the
  product over the y-slots of second-kind series, as the q-rows of the
  identity's matrix multiply in a determinant expansion.

Each case reports its median time in ms beside an exact count: the bit
length of the determinant, or the number of terms in the product.  Run as

    python3 perfbench/cases.py --seed S

The last line of standard output is a JSON object of metrics, or, on a
failed self-check, an object with an "error" key.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction

from opident.moments import random_sequence_functional
from opident.orthopoly import build_ortho_system, q_series
from opident.ring import RingMatrix, binomial, det_berkowitz, det_rational

DET_RATIONAL_SIZES = (8, 16, 32)
DET_BERKOWITZ_SIZES = (8, 16)
# (k, truncation): T = 25 as in the series sweep; T = 20 at k = 3, where one
# identity instance already costs seconds.
SERIES_CASES = ((1, 25), (2, 25), (3, 20))


def _median_ms(fn, min_reps: int = 5, budget_s: float = 0.3) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s and len(times) < 1000):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _random_matrix(rng, n: int) -> RingMatrix:
    return RingMatrix(n, n, [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                             for _ in range(n * n)])


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def det_cases(rng) -> dict:
    out = {}
    for n in DET_RATIONAL_SIZES:
        mat = _random_matrix(rng, n)
        value = det_rational(mat)
        out[f"ring.det_rational.n{n}.ms"] = _median_ms(lambda: det_rational(mat))
        out[f"ring.det_rational.n{n}.bits"] = _bits(value)
        if n in DET_BERKOWITZ_SIZES:
            if det_berkowitz(mat) != value:
                raise ArithmeticError(f"det_berkowitz disagrees with det_rational at n={n}")
            out[f"ring.det_berkowitz.n{n}.ms"] = _median_ms(lambda: det_berkowitz(mat))
    return out


def series_cases(rng) -> dict:
    out = {}
    depth = 5
    f = random_sequence_functional(rng, 60, hankel_nonzero_upto=depth)
    system = build_ortho_system(f, depth)
    xs = tuple(Fraction(x) for x in rng.sample(range(-9, 10), 2))
    for k, truncation in SERIES_CASES:
        variables = tuple(f"y{i + 1}" for i in range(k))
        wt = truncation + binomial(k, 2)
        a = f.modified_moment_series(1, xs, variables, wt)
        b = q_series(system, 0, wt, variables, 0)
        for slot in range(1, k):
            b = b * q_series(system, slot, wt, variables, slot)
        product = a * b
        if product != b * a:
            raise ArithmeticError(f"series product does not commute at k={k}")
        out[f"ring.series_mul.k{k}.ms"] = _median_ms(lambda: a * b)
        out[f"ring.series_mul.k{k}.terms_out"] = len(product.terms)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    try:
        metrics = {**det_cases(rng), **series_cases(rng)}
    except ArithmeticError as exc:
        metrics = {"error": str(exc)}
    sys.stdout.write(json.dumps(metrics) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
