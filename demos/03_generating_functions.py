"""Generating functions and bisection.

Every family has a rational generating function, and truncated long
division reads the terms straight off the numerator/denominator pair.
Splitting a series into even and odd index parts only changes the
numerator; the shared denominator comes from squaring the kernel.
"""

from gmlucas import (
    SymKernel,
    gf_gml,
    gf_gml_even,
    gf_gml_odd,
    gf_ml_poly,
    gml_binet,
    kernel_even_odd_series,
    kernel_series,
)

print("Sum Gm_n z^n = (4 + 3i - (6 + 5i) z) / (2 - 6z + 4z^2)")
print(f"  first terms: {gf_gml(5)}")

print()
print("Even and odd bisections share one denominator 2 - 10z + 8z^2:")
print(f"  Gm_0, Gm_2, Gm_4, ... = {gf_gml_even(3)}")
print(f"  Gm_1, Gm_3, Gm_5, ... = {gf_gml_odd(3)}")
for n in range(4):
    assert gf_gml_even(3)[n] == gml_binet(2 * n)
    assert gf_gml_odd(3)[n] == gml_binet(2 * n + 1)

print()
print("The polynomial family expands the same way, over Z[1/2][i][x]:")
print(f"  sum m_n(x) z^n = {gf_ml_poly(4)}")

print()
print("Any kernel (d, p) gives the series 1 / (1 - dz - pz^2).")
examples = (
    ("(3, -2)  [this package's number kernel]", SymKernel(3, -2)),
    ("(1, 1)   [Fibonacci, shifted]", SymKernel(1, 1)),
    ("(2, 1)   [Pell, shifted]", SymKernel(2, 1)),
)
for label, kernel in examples:
    print(f"  {label}: {kernel_series(kernel, 7)}")

print()
print("Decimating the Fibonacci kernel picks out every second term:")
fib = SymKernel(1, 1)
odd_back, even, odd_fwd = kernel_even_odd_series(fib, 5)
print(f"  S_(2n-1): {odd_back}")
print(f"  S_(2n):   {even}")
print(f"  S_(2n+1): {odd_fwd}")
# classical bisection: these are F_2n, F_2n+1, F_2n+2
assert [int(c.re) for c in even] == [1, 2, 5, 13, 34, 89]
