"""From a measure to its induced order and Hasse chain.

Any measure orders its domain through the attained values: x comes before
y exactly when f(x) <= f(y). Grouping ties gives the quotient, a totally
ordered chain whose edges carry the value gaps. The chain is a faithful
picture of the measure's geometry: path lengths along it reproduce the
absolute value differences.
"""

from metriclass import (
    build_hasse,
    export_dot,
    induced_order,
    measure_from_id,
    parse_domain,
    fmt,
)

spec = parse_domain("binary:L=4")
measure = measure_from_id("prec@4")
ordered = induced_order(measure, spec)

print(f"prec@4 over all {len(ordered.labels)} binary length-4 rankings:")
for cls, members in zip(ordered.classes, ordered.members):
    names = ", ".join(ordered.labels[i] for i in members)
    print(f"  value {fmt(cls.value):14s} class size {cls.size:2d}: {names}")

chain = build_hasse(ordered)
print(f"\nchain: {len(chain.classes)} classes, {len(chain.weights)} edges,"
      f" every edge weighs {fmt(chain.weights[0])}")

# a span counts the elements between two endpoints, inclusive of ties:
# the sizes of the classes from the lower endpoint's class to the upper's
class_of = {i: ci for ci, members in enumerate(ordered.members) for i in members}
lo = class_of[ordered.labels.index("<0,0,0,0>")]
hi = class_of[ordered.labels.index("<0,0,0,1>")]
span = sum(cls.size for cls in ordered.classes[lo:hi + 1])
print(f"span from <0,0,0,0> to <0,0,0,1>: {span}"
      " (the bottom singleton plus the four rankings worth 1/4)")

# path lengths along the chain reproduce value distances
print(f"chain path between their classes: {fmt(chain.path_distance(lo, hi))}")

print("\nGraphviz source (render with: dot -Tpng -O chain.gv):\n")
print(export_dot(chain, labels=ordered.labels, name="precision_chain"))
