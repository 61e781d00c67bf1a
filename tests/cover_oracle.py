"""Test oracles for the cover rows, kept from the design that read them on Σ
as built.

``derived_orbit_partition`` labels every vertex of Σ with the least member
of its G'-orbit, from the right multiplications by ``derived_basis``;
``normal_quotient`` is the quotient graph by such labels and whether it
keeps the valency; ``quotient_perm`` pushes a permutation of Σ down to the
cells; ``edge_affine_ok`` runs the witness on the quotient with the actions
on Σ pushed down.  ``sigma_quotient`` builds the labels and the quotient
together.  They are what ``permgroups.central_quotient`` and the four rows
that read it are tested against at n = 2 and 3.
"""

import numpy as np

from mdg import graphs, groups, permgroups
from mdg.graphs import Graph, _forward_arcs, _index_dtype


def derived_basis(G) -> list[int]:
    """Generators of the derived subgroup: the commutators of the x/y
    generator pairs (pure one-bit matrices)."""
    comms = groups.commutator(G, np.asarray(G.x_gens)[:, None], np.asarray(G.y_gens))
    return comms.ravel().tolist()


def derived_orbit_partition(G, sigma, info) -> np.ndarray:
    """Orbits of the derived subgroup's right action on the coset-graph
    vertices, as each vertex's orbit label (``permgroups.orbits``).  The
    action is read from the coset representatives, and checked once to be
    by automorphisms of the coset graph."""
    probes = permgroups.coset_probes(info)
    perms = [permgroups.coset_action(info, G.mul_vec(probes, d)) for d in derived_basis(G)]
    if not permgroups.are_automorphisms(sigma, perms):
        raise ValueError("derived right multiplication is not a coset-graph automorphism")
    return permgroups.orbits(perms, sigma.n)


def edge_affine_ok(G, labels, quotient, sigma_gens) -> bool:
    """The right multiplications by the generators of G, the first of
    ``sigma_gens``, pushed down to the quotient, witness an edge-affine
    action normalised by all of ``sigma_gens``."""
    down = [quotient_perm(labels, p) for p in sigma_gens]
    w = permgroups.edge_affine_witness(quotient, down, down[:len(G.gens)])
    return w.ok and w.subgroup_order == 1 << (2 * G.n)


def cell_roots(labels, n: int) -> np.ndarray:
    """The least members, ascending, of the cells of a partition of
    range(n) given as each point's least cell member (``labels``, such as
    ``permgroups.orbits`` returns); ValueError for any other array."""
    labels, points = np.asarray(labels), np.arange(n)
    if labels.shape != (n,) or (n and labels.dtype.kind not in "iu"):
        raise ValueError("need one integer label per point")
    if np.any(labels < 0) or np.any(labels > points):
        raise ValueError("a label is out of range or above its point")
    if np.any(labels[labels] != labels):
        raise ValueError("a label is not the least member of its cell")
    return np.flatnonzero(labels == points)


def normal_quotient(graph: Graph, labels) -> tuple[Graph, bool]:
    """Quotient by a vertex partition given as each vertex's least cell
    member, plus whether valency is preserved (the cover condition).
    Cells are numbered by least member.  Every vertex is mapped to its
    cell's number once; the edges are read a block at a time, and only
    each block's distinct cell pairs a < b, named a * q + b, are kept."""
    roots = cell_roots(labels, graph.n)
    q = len(roots)
    number = np.empty(graph.n, dtype=_index_dtype(q))
    number[roots] = np.arange(q)
    cell, pairs = number[labels], np.empty(0, dtype=_index_dtype(q * q))
    for u, v in _forward_arcs(graph, 8):
        a, b = np.sort([cell[u], cell[v]], axis=0)
        pairs = np.sort(np.concatenate([pairs, (a.astype(pairs.dtype) * q + b)[a != b]]))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    quotient = Graph(q, np.stack(np.divmod(pairs, q), axis=1))
    k = graph.is_regular()
    preserved = k is not None and quotient.is_regular() == k
    return quotient, preserved


def quotient_perm(labels, p: np.ndarray) -> np.ndarray:
    """Push a permutation down to the cells, numbered by least member, of
    an invariant partition given as each point's least cell member; raises
    ValueError if some cell image straddles two cells."""
    p = permgroups.as_perm(p)
    roots = cell_roots(labels, len(p))
    images = np.asarray(labels)[p]
    if not np.array_equal(images, images[labels]):
        raise ValueError("permutation does not preserve the partition")
    return permgroups.as_perm(np.searchsorted(roots, images[roots]))


def sigma_quotient(G, sigma: Graph, info: graphs.SigmaInfo) -> tuple[np.ndarray, Graph, bool]:
    """The G'-orbit labels on Σ, the quotient graph and whether it keeps
    the valency."""
    labels = derived_orbit_partition(G, sigma, info)
    return (labels, *normal_quotient(sigma, labels))
