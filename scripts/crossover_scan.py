#!/usr/bin/env python3
"""Scan the crossover time against the peak-offset ratio x and print a
comparison of the exact root with the logarithmic
approximation (which overshoots at moderate x)."""

import numpy as np

from khalfin import make_density, solve_crossover


def run():
    print(f"{'x':>10} {'s_exact':>12} {'s_approx':>12} {'rel gap':>10}")
    for x in np.geomspace(10, 1e6, 11):
        d = make_density(0.0, float(x), 1.0)
        res = solve_crossover(d)
        gap = (res.s_paper_approx - res.s_exact_large) / res.s_exact_large
        print(f"{x:10.3g} {res.s_exact_large:12.6f} "
              f"{res.s_paper_approx:12.6f} {gap:10.2%}")


if __name__ == "__main__":
    run()
