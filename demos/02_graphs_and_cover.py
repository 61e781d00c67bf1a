"""Construct the Cayley graph and the bipartite coset graph for n = 2,
and exhibit the correspondence between them.

The Cayley graph uses the union of the two generating sets as connection
set.  The coset graph has the right cosets of the two coordinate
subgroups as vertices, adjacent when they intersect.  The clique graph
of the Cayley graph is the coset graph, and the line graph of the coset
graph is the Cayley graph back again.
"""

from mdg import claims, cli

G, S, gamma, sigma, info = cli.build_instance(2)
print(f"Cayley graph: {gamma.n} vertices, valency {gamma.is_regular()}, "
      f"{gamma.edge_count()} edges")
print(f"coset graph:  {sigma.n} vertices, valency {sigma.is_regular()}, "
      f"{sigma.edge_count()} edges")

# the neighbourhood of 1 decides the rest: S is the cliques X \ {1} and
# Y \ {1}, with no edge between them and X n Y = 1, so by vertex-transitivity
# the maximal cliques are the right cosets of X and Y, whose intersection
# graph is the coset graph, and z -> {Xz, Yz} maps the Cayley graph onto the
# coset graph's line graph.  The claim rows that read it print the lines
# below.
ctx = claims.Context(G)
nbhd = ctx.neighbourhood
local = {c.id: c.computed for c in claims.run(
    [row for row in claims.GRAPHS if "neighbourhood" in row[3]], ctx)}
print(f"{G.order // (nbhd.x_degree + 1) + G.order // (nbhd.y_degree + 1)} verified coset "
      f"cliques of size {nbhd.x_degree + 1}")
print("clique graph == coset graph:", local["clique-graph-is-coset-graph"])
print("line-graph bijection covers all vertices:", local["line-graph-is-cayley-graph"])

# quotient by the derived-subgroup orbits, read from G/G' by the cover lemma:
# G' is central and meets X and Y in 1 alone, so every orbit, a fibre of the
# cover, has |G'| = 2^(n^2) vertices, and the quotient is the coset graph of
# G/G' = C_2^(2n), complete bipartite
cover = {c.id: c.computed for c in claims.run(
    [row for row in claims.GRAPHS if row[3] in ("cover", "derived")], ctx)}
print("quotient is complete bipartite:", cover["quotient-complete-bipartite"])
print("valency preserved by the cover:", cover["quotient-preserves-valency"])
print("fibre sizes:", [len(ctx.derived)] if cover["derived-action-semiregular"] else "unequal")

# an edge {g, h} takes the colour of the side h g^-1 lies in; every triangle
# lies in one coset, so it is monochromatic
print("all triangles monochromatic:", local["triangles-monochromatic"])
