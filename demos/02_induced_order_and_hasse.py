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
    interval_span,
    measure_from_id,
    parse_domain,
    fmt,
)

spec = parse_domain("binary:L=4")
measure = measure_from_id("prec@4")
ordered = induced_order(measure, spec)

print(f"prec@4 over all {len(ordered.labels)} binary length-4 rankings:")
for cls in ordered.classes:
    members = ", ".join(ordered.labels[i] for i in cls.members)
    print(f"  value {fmt(cls.value):14s} class size {len(cls.members):2d}: {members}")

chain = build_hasse(ordered)
print(f"\nchain: {len(chain.classes)} classes, {len(chain.weights)} edges,"
      f" every edge weighs {fmt(chain.weights[0])}")

# spans count elements between two endpoints, inclusive of ties
bottom = ordered.labels.index("<0,0,0,0>")
quarter = ordered.labels.index("<0,0,0,1>")
print(f"span from <0,0,0,0> to <0,0,0,1>: {interval_span(ordered, bottom, quarter)}"
      " (the bottom singleton plus the four rankings worth 1/4)")

# path lengths along the chain reproduce value distances
lo, hi = ordered.class_of(bottom), ordered.class_of(quarter)
print(f"chain path between their classes: {fmt(chain.path_distance(lo, hi))}")

print("\nGraphviz source (render with: dot -Tpng -O chain.gv):\n")
print(export_dot(chain, labels=ordered.labels, name="precision_chain"))
