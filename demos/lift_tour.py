"""Vertical and complete lifts, and the flip between the two tangent pictures.

Run from the repository root after an editable install:

    python3 demos/lift_tour.py
"""

from algebroids.algebroid import (
    canonical_algebroid,
    linear_poisson,
    tangent_lift,
    validate,
)
from algebroids.calculus import schouten
from algebroids.fixtures import nonconstant_rank2
from algebroids.lifts import (
    classical_complete_lift,
    classical_vertical_lift,
    complete_lift_T,
    vertical_lift_V,
)
from algebroids.ring import Chart
from algebroids.tensor import pretty

A = nonconstant_rank2()
print("base chart:", A.base.coords, "— anchor rows:",
      [[str(c) for c in row] for row in A.anchor])

TA = tangent_lift(A)
validate(TA)
print("tangent lift: chart", TA.base.coords, "fibers", TA.fiber_names)

# the vertical lift freezes a section onto the dotted fibers; the complete
# lift differentiates it along the velocities
s = A.e(0) * A.base.coordinate("x")          # x·e_1
vert = vertical_lift_V(A, s)
comp = complete_lift_T(A, s)
print("\nsection       s   =", pretty(s))
print("vertical lift V(s) =", pretty(vert))
print("complete lift T(s) =", pretty(comp))

# bracket compatibility: [T(s), T(t)] = T([s, t]) and [T(s), V(t)] = V([s, t])
t = A.e(1)
st = schouten(A, s, t)
assert schouten(TA, comp, complete_lift_T(A, t)) == \
    complete_lift_T(A, st)
assert schouten(TA, comp, vertical_lift_V(A, t)) == \
    vertical_lift_V(A, st)
assert schouten(TA, vert, vertical_lift_V(A, t)).is_zero()
print("\nlift/bracket table verified on s = x·e_1, t = e_2")

# the fiberwise-linear Poisson structure of the lifted algebroid
lp = linear_poisson(TA)
print("\nlinear Poisson structure of the tangent lift lives on",
      lp.chart.coords)
assert schouten(lp.owner, lp.bivector, lp.bivector).is_zero()
print("and closes: [P, P] = 0")

# over canonical algebroids the two tangent pictures coincide up to a block
# swap; the textbook lifts of a vector field come out of that transport
C = canonical_algebroid(Chart(("q",)))
w = C.e(0) * C.base.coordinate("q")          # the field q·d/dq
print("\nclassical lifts of", pretty(w), "to the chart (q, q_dot):")
print("  vertical:", pretty(classical_vertical_lift(w)))
print("  complete:", pretty(classical_complete_lift(w)))
