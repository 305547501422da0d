#!/usr/bin/env python3
"""The zero-failure confidence bound: how many clean solves does it take to
claim a failure rate below 1% with 90% confidence?"""

from minuet_sudoku import confidence_upper_bound

print(" n solved   upper bound on failure rate (90% confidence)")
for n in (1, 10, 50, 100, 150, 200, 229, 230, 300, 1000):
    bound = confidence_upper_bound(n, 0.90)
    marker = "  <-- first n under 1%" if n == 230 else ""
    print(f"{n:9d}   {bound:8.4%}{marker}")

smallest = next(n for n in range(1, 1000)
                if confidence_upper_bound(n, 0.90) < 0.01)
print(f"\nsmallest zero-failure n certifying <1% at 90% confidence: {smallest}")
print("cross-check: (1 - bound)^n should equal 0.10 exactly:")
b = confidence_upper_bound(230, 0.90)
print(f"  (1 - {b:.6f})^230 = {(1 - b) ** 230:.12f}")
