"""Symmetries of the two graphs for n = 2.

The regular right-multiplication action combines with three families of
vertex-stabilizer lifts (matrix changes of basis on each side, plus the
side swap) to generate a group of order 2^(n^2+2n) * |GL(n,2)|^2 * 2.
A seeded backtracking search certifies that this is the full
automorphism group of both graphs.
"""

from mdg import autsearch, cli, permgroups as pg

G, S, gamma, sigma, info = cli.build_instance(2)

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

res = autsearch.automorphism_group(gamma, gens)
print(f"full search on the Cayley graph: order {res.order}, "
      f"complete={res.complete}, {res.nodes} search nodes")

# local action: the distance diagram of the stabilizer orbits
diag = pg.distance_diagram(gamma, lifts, 0)
print("orbit sizes by distance:", diag.cell_sizes_by_distance())
print(cli.render_diagram_table(diag))

# transitivity profile
rep = pg.transitivity_report(gamma, gens, stabilizer_certified=True)
print("Cayley graph transitivity:", rep.flags())
# on the coset graph: the same generators, induced on the cosets from one
# representative each
srep = pg.transitivity_report(sigma, pg.action_gens(G, info))
print("coset graph 2-arc-transitive:", srep.two_arc)
