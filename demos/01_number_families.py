"""Tour of the number families.

The integer sequence 2, 3, 5, 9, 17, 33, ... is m_n = 2**n + 1; its Gaussian
companion glues consecutive terms into Gm_n = m_n + i m_{n-1}.  This script
walks the first rows, shows that every computation route lands on the same
value, and follows the recurrence backwards through negative indices.
"""

from gmlucas import (
    gml_binet,
    gml_explicit,
    gml_from_ml,
    gml_negative,
    gml_recurrence,
    ml_binet,
    ml_explicit,
    ml_negative,
    ml_recurrence,
)

print("First rows of both families")
print(f"{'n':>3}  {'m_n':>6}  Gm_n")
for n in range(8):
    m = ml_recurrence(n)
    gm = gml_recurrence(n)
    print(f"{n:>3}  {str(m):>6}  {gm}")

print()
print("Three routes to m_20, four to Gm_20")
routes_m = {
    "recurrence": ml_recurrence(20),
    "binet": ml_binet(20),
    "explicit": ml_explicit(20),
}
for label, value in routes_m.items():
    print(f"  m_20 via {label:<10} = {value}")
assert len(set(map(str, routes_m.values()))) == 1

routes_gm = {
    "recurrence": gml_recurrence(20),
    "binet": gml_binet(20),
    "explicit": gml_explicit(20),
    "relation": gml_from_ml(20),
}
for label, value in routes_gm.items():
    print(f"  Gm_20 via {label:<10} = {value}")
assert len(set(map(str, routes_gm.values()))) == 1

print()
print("Backwards: indices -5..-1 stay in the ring Z[1/2][i]")
for n in range(5, 0, -1):
    print(f"  m_-{n} = {ml_negative(n)}    Gm_-{n} = {gml_negative(n)}")

# the backward terms still satisfy x_n = 3 x_{n-1} - 2 x_{n-2}
def term(k):
    return gml_binet(k) if k >= 0 else gml_negative(-k)

for k in range(-3, 4):
    assert term(k) == 3 * term(k - 1) - 2 * term(k - 2)
print()
print("Recurrence holds across zero: checked for k = -3..3")
