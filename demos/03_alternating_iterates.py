#!/usr/bin/env python3
"""Alternating projections converge to the intersection field.

Applying two conditional expectations in turn drives any vector to its
conditional expectation given the meet of the (completed) partitions.
The run is certified against that meet operator computed directly, and
the squared norms along the way telescope exactly.
"""

import numpy as np

from condexp import (
    CondExpOperator,
    Partition,
    direct_meet_operator,
    dyadic_average_trajectory,
    iterate,
    power_difference_ledger,
    sandwich_product,
)

uniform = np.full(4, 0.25)
t_rows = CondExpOperator(Partition([[0, 1], [2, 3]]), uniform)
t_cols = CondExpOperator(Partition([[0, 2], [1, 3]]), uniform)

x = np.array([1.0, 2.0, 3.0, 4.0])
report = iterate([t_rows, t_cols], x)

# The report keeps one number per iterate, not the iterates themselves;
# replay the alternation to show them.
print("trajectory:")
vec = x
for k in range(1, report.iterations_used + 1):
    vec = (t_rows, t_cols)[(k - 1) % 2].apply(vec)
    print(f"  S_{k} x = {vec}   |S_k x|^2 = {report.norms2[k - 1]:.4f}")
print("converged:", report.converged, "after", report.iterations_used,
      "applications; residual", report.residual)
print("stopped because:", report.stop_reason)

# The meet of the two partitions is trivial, so the limit is the mean.
q = direct_meet_operator([t_rows, t_cols])
print("meet partition:", q.partition.blocks)
print("certified limit:", report.limit)

# Norm telescoping: each squared step equals the drop in squared norm.
print("\ndiffs2          :", report.diffs2)
print("norm2 decrements:", report.norms2[:-1] - report.norms2[1:])

# Summability ledger for the palindromic sandwich T = T1 T2 T1.
ledger = power_difference_ledger(t_rows, t_cols, x, n_terms=50)
print("\nsum |T^n x - T^(n+2) x|^2 =", ledger.partial_sum,
      " <= |x|^2 =", ledger.bound)
print("n-weighted sum =", ledger.weighted_sum,
      " telescoping target =", ledger.weighted_target)

# Dyadic averages of even powers land on the same limit.
averages = dyadic_average_trajectory(sandwich_product(t_rows, t_cols), x, 5)
print("\ndyadic averages of even powers:")
for level, b in enumerate(averages):
    print(f"  level {level}: {b}")
