"""Build the bit-packed 2-group for n = 2 and inspect its structure.

Elements are triples (x, y, A) with x, y vectors over F_2 and A an n-by-n
matrix over F_2, packed into a single integer.  Multiplication twists the
matrix part by the outer product of the right factor's x with the left
factor's y, which makes the group nonabelian of nilpotency class 2.
"""

from mdg import groups

n = 2
G = groups.TensorGroup(n)
print(f"group on {n}-dimensional vectors, order {G.order} = 2^{n * n + 2 * n}")

# generators: the coordinate vectors on each side
print("x-side generators:", [G.decode(g) for g in G.x_gens])
print("y-side generators:", [G.decode(g) for g in G.y_gens])

# the defining relations hold, and counting pins the presentation
order = groups.subgroup_order(G, G.gens)
print("presentation verified:", groups.verify_presentation(G, order))

derived = groups.derived_subgroup(G)
print("derived subgroup order:", len(derived))
# G' is central, the generators' 16 words are a transversal of it, and no
# word but 1 is central: so G' is the whole centre
print("derived == center:", groups.is_center(G, order, derived))
print("abelianization:", groups.abelianization_structure(G, derived))

# a sample commutator: [e1, f1] is the elementary matrix e1 (x) f1
x1, y1 = G.x_gens[0], G.y_gens[0]
print("[e1, f1] decodes to", G.decode(groups.commutator(G, x1, y1)))

# the mixed-dihedral predicate that characterizes this construction
report = groups.is_mixed_dihedral(G, order, derived, groups.abelianization_structure(G, derived))
print("mixed-dihedral:", report.is_mixed_dihedral)
