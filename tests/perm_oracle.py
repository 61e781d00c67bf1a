"""The full-degree computation of the generated symmetry order, kept as
the test oracle for ``permgroups.generated_order``: it checks every lift
as a permutation of all |G| codes, so it is practical at n <= 3 only."""

import numpy as np

from mdg.permgroups import PermGroup, compose, inverse, right_mult_perm


def order_with_regular_normal_subgroup(G, stab_gens) -> int:
    """Order of <R(G) gens, stab_gens> via the verified factorisation
    R(G) . <stab_gens>.

    Checks that every stab generator fixes vertex 0 and conjugates each
    R(s) back into R(G); then the product set is a subgroup, it meets the
    stabilizer of 0 in exactly <stab_gens>, and the order is
    |G| * |<stab_gens>| with the second factor from an honest BSGS.
    """
    r_gens = {s: right_mult_perm(G, s) for s in G.gens}
    for sg in stab_gens:
        if int(sg[G.identity]) != G.identity:
            raise ValueError("stabilizer generator moves the identity vertex")
        sg_inv = inverse(sg)
        for s, rp in r_gens.items():
            conj = compose(compose(sg_inv, rp), sg)
            t = int(conj[G.identity])
            if not np.array_equal(conj, right_mult_perm(G, t)):
                raise ValueError("stabilizer generator does not normalise the regular action")
    return G.order * PermGroup(list(stab_gens), G.order).order()
