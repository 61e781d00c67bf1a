"""Symmetries of the two graphs for n = 2.

The regular right-multiplication action combines with three families of
vertex-stabilizer lifts (matrix changes of basis on each side, plus the
side swap) to generate a group of order 2^(n^2+2n) * |GL(n,2)|^2 * 2.
Partition refinement certifies, from these generators alone, that this is
the full automorphism group of both graphs.
"""

from mdg import autsearch, cli, groups, permgroups as pg

G, S, gamma, _, _ = cli.build_instance(2)

# the right multiplications by the generators, then the stabilizer lifts
gens = pg.action_gens(G)
lifts = gens[len(G.gens):]
assert pg.are_automorphisms(gamma, gens)
print("stabilizer lifts:", len(lifts), "generators, group order",
      pg.PermGroup(lifts).order())

# the generated order, from the lifts' action on the connection set S
order = pg.generated_order(G, S, [p[S] for p in lifts])
print("generated symmetry order:", order,
      "== formula:", order == pg.expected_symmetry_order(2))

print("certified automorphism order of the Cayley graph:", autsearch.certified_order(gamma, gens))

# local action: the distance diagram, from a breadth-first search over the
# cells of the lifts about vertex 0, each cell named by its least member
order = groups.subgroup_order(G, G.gens)
diag = pg.least_members(G, pg.cell_diagram(G, S, order))
print("orbit sizes by distance:", diag.cell_sizes_by_distance())
print(cli.render_diagram_table(diag))

# transitivity profile, from the lifts on the ball of radius 2 about vertex 0
# and the cells at distance 3, vertex-transitive as G's generators generate all of it
rep = pg.cayley_transitivity(G, S, order, diag, stabilizer_certified=True)
print("Cayley graph transitivity:", rep.flags())
# on the coset graph, read at the vertex X alone: the lifts that keep X, with
# R(X), are 2-transitive on its neighbours Yx, and a lift swaps X and Y
print("coset graph 2-arc-transitive:", pg.local_two_arc(G, S))
