"""Polynomial families and the x = 1 collapse.

m_n(x) follows m_n = 3x m_{n-1} - 2 m_{n-2} from seeds 2 and 3x.  Setting
x = 1 turns the step back into the number recurrence, so every polynomial
evaluates to its number twin there.  The closed form over the roots
(3x +- sqrt(9x^2 - 8))/2 is irrational in x, which is why it only appears
as a floating point cross-check.
"""

from gmlucas import (
    GaussianDyadic,
    binet_numeric,
    gml_poly,
    ml_binet,
    ml_poly,
    ml_poly_explicit,
    ml_poly_negative,
    poly_eval,
)

print("Polynomial table")
print(f"{'n':>3}  m_n(x)")
for n in range(6):
    print(f"{n:>3}  {ml_poly(n)}")
print()
print(f"{'n':>3}  Gm_n(x)")
for n in range(6):
    print(f"{n:>3}  {gml_poly(n)}")

# explicit binomial coefficients match the recurrence, term by term
for n in range(30):
    assert ml_poly_explicit(n) == ml_poly(n)

print()
print("Specialization at x = 1 recovers the numbers")
for n in (0, 1, 5, 10, 50):
    value = poly_eval(ml_poly(n), 1)
    print(f"  m_{n}(1) = {value} = 2^{n} + 1")
    assert value == ml_binet(n)

print()
print("Exact evaluation anywhere in the ring, e.g. x = 2:")
print(f"  m_3(2)  = {poly_eval(ml_poly(3), 2)}   (27*8 - 18*2 = 180)")
print(f"  Gm_3(2) = {poly_eval(gml_poly(3), 2)}")

print()
print("Floating point closed form vs exact evaluation at x = 2")
for n in (3, 10, 20):
    approx = binet_numeric(n, 2)
    exact = complex(poly_eval(gml_poly(n), 2))
    rel = abs(approx - exact) / (1 + abs(exact))
    print(f"  n={n:>2}: closed form {approx:.6g}, relative error {rel:.2e}")
    assert rel <= 1e-9

print()
print("Negative indices divide by powers of two:")
for n in (1, 2, 3):
    print(f"  m_-{n}(x) = {ml_poly_negative(n)}")
assert poly_eval(ml_poly_negative(2), 1) == GaussianDyadic(
    ml_binet(2).re.num, 0).div_pow2(2)
