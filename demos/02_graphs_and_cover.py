"""Construct the Cayley graph and the bipartite coset graph for n = 2,
and exhibit the correspondence between them.

The Cayley graph uses the union of the two generating sets as connection
set.  The coset graph has the right cosets of the two coordinate
subgroups as vertices, adjacent when they intersect.  The clique graph
of the Cayley graph is the coset graph, and the line graph of the coset
graph is the Cayley graph back again.
"""

import numpy as np

from mdg import cli, graphs, permgroups as pg

G, S, gamma, sigma, info = cli.build_instance(2)
print(f"Cayley graph: {gamma.n} vertices, valency {gamma.is_regular()}, "
      f"{gamma.edge_count()} edges")
print(f"coset graph:  {sigma.n} vertices, valency {sigma.is_regular()}, "
      f"{sigma.edge_count()} edges")

# the coset cliques are verified to be exactly the maximal cliques of the
# Cayley graph, and their clique graph, numbered by the cosets' vertices, is
# the coset graph
cliques = graphs.coset_cliques(info)
cg = graphs.clique_graph(gamma, cliques)
print(f"{len(cliques)} verified coset cliques of size {cliques.shape[1]}")
print("clique graph == coset graph:", cg == sigma)

# the explicit vertex -> edge bijection realizing the line-graph isomorphism
phi = graphs.phi_map(gamma, sigma, info)
print("line-graph bijection covers all vertices:", sorted(phi) == list(range(gamma.n)))

# quotient by the derived-subgroup orbits, each vertex labelled by the least
# vertex of its orbit: a complete bipartite graph, covered semiregularly with
# fibres of size 2^(n^2)
labels = cli.derived_orbit_partition(G, sigma, info)
quotient, preserved = graphs.normal_quotient(sigma, labels)
print("quotient is complete bipartite:", pg.is_complete_bipartite(quotient))
print("valency preserved by the cover:", preserved)
print("fibre sizes:", sorted(set(np.bincount(labels)[labels].tolist())))

# two-colour the Cayley edges by generator side; triangles are monochromatic
import mdg.groups as groups
X = groups.closure(G, G.x_gens)
Y = groups.closure(G, G.y_gens)
colors = graphs.edge_coloring(gamma, G, X, Y)
print("all triangles monochromatic:", graphs.triangles_monochromatic(gamma, colors))
