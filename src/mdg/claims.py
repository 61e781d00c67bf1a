"""The paper's claims as one table of rows (id, expected, compute, needs),
and the runner that reports them.  ``expected`` is the value, or the
group's value; a row whose value is None for the group is not reported.
``compute`` reads the shared objects that ``needs`` names from a
``Context``; None marks a row asserted, not computed.  A row is skipped,
before anything is built, when an object it needs, directly or through
another object, holds more entries than ``groups.DEFAULT_BUDGET``.
"""

import json
import time
from collections import namedtuple

import numpy as np

from . import autsearch, graphs, groups, permgroups

PASS, FAIL, SKIPPED, ASSERTED = "pass", "fail", "skipped", "asserted"

Claim = namedtuple("Claim", "id status computed expected ms")


class VerificationReport(list):
    """The claims of one run, in order."""

    def ok(self) -> bool:
        return all(c.status != FAIL for c in self)

    def to_dict(self) -> dict:
        return {"schema": 1, "claims": [_jsonable(c._asdict()) for c in self]}

    def render(self) -> str:
        lines = [f"{c.status.upper():>8}  {c.id}: computed={c.computed!r} "
                 f"expected={c.expected!r} ({c.ms} ms)" for c in self]
        verdict = "OK" if self.ok() else "FAILED"
        lines.append(f"{verdict}: {sum(c.status == PASS for c in self)} passed, "
                     f"{sum(c.status == FAIL for c in self)} failed, "
                     f"{len(self)} total")
        return "\n".join(lines)


def _jsonable(v):
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, float)):
        return int(v) if float(v).is_integer() else float(v)
    return str(v)


# -- helpers of the rows (also used by the test suite) ---------------------

def _semiregular(G, N) -> bool:
    """Whether N is central and meets X and Y in 1 alone: semiregular (README)."""
    return groups.commutes_with_gens(G, N).all() and all(
        np.count_nonzero(groups.in_sorted(groups.closure_array(G, gens), N)) == 1
        for gens in (G.x_gens, G.y_gens))


def _coset_valency(G) -> int | None:
    """Σ's valency, as ``Graph.is_regular`` reads it: once X n Y = {1} is
    checked, each X-coset has |X| neighbours and each Y-coset |Y| (README)."""
    X, Y, _ = groups.sides(G)
    return len(X) if len(X) == len(Y) else None


def _edge_affine(G, cover: permgroups.Cover) -> bool:
    """R(G.gens) and the lifts, read on Σ/G' from their images of the probes,
    witness an edge-affine action of order 2^(2n) normalised by all of them."""
    down = ([cover.action(G.mul_vec(cover.probes, g)) for g in G.gens]
            + list(map(cover.action, permgroups.stabilizer_lift_images(G, cover.probes))))
    w = permgroups.edge_affine_witness(cover.quotient, down, down[:len(G.gens)])
    return w.ok and w.subgroup_order == 1 << (2 * G.n)


def load_reference_diagram() -> dict:
    from importlib import resources  # only n = 2 reads the file
    return json.loads(resources.files("mdg").joinpath("data/distance_diagram_n2.json").read_text())


def diagram_matches_reference(diag: permgroups.DistanceDiagram, ref: dict) -> tuple[bool, str]:
    if diag.cell_sizes_by_distance() != ref["cell_sizes_by_distance"]:
        return False, "cell sizes differ"
    index = {}
    for i, (size, d) in enumerate(zip(diag.sizes, diag.distances)):
        key = (d, size)
        if key in index:
            return False, f"cell key {key} is ambiguous"
        index[key] = i
    for chk in ref["edge_checks"]:
        i = index.get(tuple(chk["from"]))
        j = index.get(tuple(chk["to"]))
        if i is None or j is None:
            return False, f"no cell for {chk['from']} or {chk['to']}"
        if diag.counts[i][j] != chk["count"]:
            return False, (f"count {chk['from']}->{chk['to']}: "
                           f"{diag.counts[i][j]} != {chk['count']}")
    return True, "ok"


def _lemma_holds(nbhd: graphs.Neighbourhood) -> bool:
    """Whether the neighbourhood of 1 is the cliques X \\ {1} and Y \\ {1},
    apart, with X n Y = {1}: then the maximal cliques of Γ are the right
    cosets of X and Y, their intersection graph is Σ, Γ is L(Σ) under
    z -> {Xz, Yz}, and every triangle lies in one coset (README)."""
    return nbhd.trivial_meet and nbhd.two_cliques and nbhd.apart


def _line_graph_order(c) -> int:
    """The order of Aut(Γ) as Σ's certified order.  By Whitney's
    theorem every automorphism of L(Σ) is induced by exactly one of Σ when
    Σ is connected on more than four vertices; so Γ must be L(Σ), by its
    neighbourhood of 1, and Σ that large and connected: <X u Y> = G (README)."""
    if not _lemma_holds(c.neighbourhood):
        raise ValueError("Gamma is not the line graph of Sigma")
    if c.sigma.n <= 4 or c.generated != c.group.order:
        raise ValueError("Sigma is not connected on more than 4 vertices")
    return autsearch.certified_order(c.sigma, c.sigma_gens)


# -- the shared objects: name -> (label, entries from G, build, needs) ------
# A label is ASCII: a text report may go to a stream of any encoding.
# Σ(n) has 2|G|/2^n vertices; ``action_gens`` lists 2n right
# multiplications, 2n(n-1) lifts and the swap.

OBJECTS = {
    # the group; the rows that need it enumerate it, a byte per element
    "G": ("G", lambda G: G.order, lambda c: c.group, ""),
    # |<G.gens>|, counted on a mask over G; named G in a skip reason
    "generated": ("G", lambda G: G.order, lambda c: groups.subgroup_order(c.G, c.G.gens), "G"),
    "derived": ("G'", lambda G: G.order, lambda c: groups.derived_subgroup(c.G), "G"),
    # the cyclic factor orders of G/G'
    "abelianization": ("G'", lambda G: G.order,
                       lambda c: groups.abelianization_structure(c.G, c.derived), "derived"),
    "S": ("S", lambda G: 2 * (2 ** G.n - 1), lambda c: graphs.xy_connection_set(c.group), ""),
    # the product table of S with itself
    "neighbourhood": ("the neighbourhood of 1", lambda G: (2 * (2 ** G.n - 1)) ** 2,
                      lambda c: graphs.identity_neighbourhood(c.group, c.S), "S"),
    "gamma": ("Gamma", lambda G: G.order * 2 * (2 ** G.n - 1),
              lambda c: graphs.cayley_graph(c.group, c.S), "S"),
    # two arcs, a coset member and a coset index per element
    "coset_graph": ("Sigma", lambda G: 6 * G.order, lambda c: graphs.sigma_graph(c.group), ""),
    # Σ and its coset bookkeeping apart, holding no entries of their own
    "sigma": ("Sigma", lambda G: 0, lambda c: c.coset_graph[0], "coset_graph"),
    "info": ("Sigma", lambda G: 0, lambda c: c.coset_graph[1], "coset_graph"),
    # Σ/G' from G/G': a product of each word's inverse with every word
    "cover": ("G/G'", lambda G: 1 << (4 * G.n),
              lambda c: permgroups.central_quotient(c.group, c.derived), "derived"),
    # the cells of the lifts, one cell's |S| neighbours' neighbours at a time
    "diagram": ("the cells of the lifts", lambda G: (2 * (2 ** G.n - 1)) ** 2,
                lambda c: permgroups.cell_diagram(c.group, c.S, c.generated), "S generated"),
    "sigma_gens": ("the actions on Sigma", lambda G: (2 * G.n ** 2 + 1) * (G.order >> (G.n - 1)),
                   lambda c: permgroups.action_gens(c.group, c.info), "info"),
}


def needs_of(names: str) -> list[str]:
    """The objects ``names`` need, transitively, each after its own needs."""
    return list(dict.fromkeys(dep for name in names.split()
                              for dep in [*needs_of(OBJECTS[name][3]), name]))


class Context(dict):
    """The objects of one run on ``group``, by name.  Reading one as an
    attribute builds it on first use; a build that raised raises the same
    error at every later use."""

    def __init__(self, group):
        super().__init__()
        self.group = group

    def __getattr__(self, name):
        if name not in OBJECTS:
            raise AttributeError(name)
        if name not in self:
            try:
                self[name] = OBJECTS[name][2](self)
            except Exception as e:
                self[name] = e
        if isinstance(self[name], Exception):
            raise self[name]
        return self[name]


# -- the table ---------------------------------------------------------------

GAMMA_EXPECTED_FLAGS = {
    "vertex": True, "edge": True, "arc": True,
    "2-arc": False, "2-geodesic": True,
    "1-distance": True, "2-distance": True, "3-distance": False,
}


def _symmetry(G) -> int:
    return permgroups.expected_symmetry_order(G.n)


_ABELIANIZATION = ("abelianization", lambda G: [2] * (2 * G.n), lambda c: c.abelianization,
                   "abelianization")
_MIXED = ("mixed-dihedral", True, lambda c: groups.is_mixed_dihedral(
    c.G, c.generated, c.derived, c.abelianization).is_mixed_dihedral, "generated abelianization")

GROUP = (
    ("order", lambda G: 2 ** (G.n * G.n + 2 * G.n), lambda c: c.generated, "generated"),
    ("relations-and-count", True,
     lambda c: groups.verify_presentation(c.G, c.generated), "generated"),
    ("derived-order", lambda G: 2 ** (G.n * G.n), lambda c: len(c.derived), "derived"),
    ("derived-equals-center", True,
     lambda c: groups.is_center(c.G, c.generated, c.derived), "generated derived"),
    ("derived-is-pure-tensors", True, lambda c: np.array_equal(
        c.derived, np.arange(1 << (c.G.n ** 2)) << (2 * c.G.n)), "derived"),
    _ABELIANIZATION,
    _MIXED,
)

DIHEDRAL = (("order", lambda G: G.order, lambda c: c.generated, "generated"),
            _MIXED, _ABELIANIZATION)

# the rows that follow from the neighbourhood of 1 alone (README)
_LEMMA = (lambda c: _lemma_holds(c.neighbourhood), "neighbourhood")

GRAPHS = (
    # the counts of Γ = Cay(<S>, S) and Σ, read from G with neither built (README)
    ("cayley-vertices", lambda G: G.order, lambda c: c.generated, "generated"),
    ("cayley-valency", lambda G: 2 * (2 ** G.n - 1),
     lambda c: len(graphs.connection_set(c.group, c.S)), "S"),
    ("coset-graph-vertices", lambda G: 2 ** (G.n * G.n + G.n + 1), lambda c: sum(
        c.generated // len(groups.closure_array(c.group, gens))
        for gens in (c.group.x_gens, c.group.y_gens)), "generated"),
    ("coset-graph-valency", lambda G: 2 ** G.n, lambda c: _coset_valency(c.group), ""),
    # |<X u Y>| once X n Y = {1} is checked (``sides`` raises otherwise)
    ("coset-graph-edges", lambda G: G.order, lambda c: groups.sides(c.group) and c.generated,
     "generated"),
    ("clique-graph-is-coset-graph", True, *_LEMMA),
    ("line-graph-is-cayley-graph", True, *_LEMMA),
    ("quotient-complete-bipartite", lambda G: (2 ** G.n, 2 ** G.n),
     lambda c: permgroups.is_complete_bipartite(c.cover.quotient), "cover"),
    ("quotient-preserves-valency", True, lambda c: c.cover.preserved, "cover"),
    ("derived-action-semiregular", True, lambda c: _semiregular(c.group, c.derived), "derived"),
    # each row that reads the actions checks that they are automorphisms
    ("edge-affine-witness", True, lambda c: _edge_affine(c.group, c.cover), "cover"),
    ("cayley-transitivity", GAMMA_EXPECTED_FLAGS, lambda c: permgroups.cayley_transitivity(
        c.group, c.S, c.generated, c.diagram, stabilizer_certified=(c.group.n == 2)).flags(),
     "S generated diagram"),
    ("coset-graph-2-arc-transitive", True, lambda c: permgroups.local_two_arc(c.group, c.S), "S"),
    ("distance-layers", lambda G: [1, 6, 18, 54, 117, 54, 6] if G.n == 2 else None,
     lambda c: [sum(sizes) for sizes in c.diagram.cell_sizes_by_distance()], "diagram"),
    ("distance-diagram-reference", lambda G: (True, "ok") if G.n == 2 else None,
     lambda c: diagram_matches_reference(c.diagram, load_reference_diagram()), "diagram"),
    # under the lemma each vertex has as many X- and Y-edges as 1
    ("edge-color-counts", lambda G: (G.order * (2 ** G.n - 1) // 2,) * 2,
     lambda c: _lemma_holds(c.neighbourhood) and (c.generated * c.neighbourhood.x_degree // 2,
                                                  c.generated * c.neighbourhood.y_degree // 2),
     "neighbourhood generated"),
    ("triangles-monochromatic", True, *_LEMMA),
)

GENERATED_ORDER = ("generated-order", _symmetry, lambda c: permgroups.generated_order(
    c.group, c.S, permgroups.stabilizer_lift_images(c.group, c.S)), "S")
# the certified order, on Σ for both targets; its seeds are induced from the
# coset representatives, with no permutation of all codes
SEARCH = {
    "gamma": ("full-automorphism-order-gamma", _symmetry, _line_graph_order,
              "neighbourhood generated sigma sigma_gens"),
    "sigma": ("full-automorphism-order-sigma", _symmetry,
              lambda c: autsearch.certified_order(c.sigma, c.sigma_gens), "sigma sigma_gens"),
}


def over_budget(needs: str, G) -> str | None:
    """Why an object that ``needs`` names, directly or through another
    object, is over the size rule on G, or None."""
    param = ",".join(map(str, getattr(G, "ms", [G.n])))  # how a skip reason names G
    for label, size, _, _ in (OBJECTS[name] for name in needs_of(needs)):
        if size(G) > groups.DEFAULT_BUDGET:
            return f"needs {label}({param}): {size(G):,} entries > {groups.DEFAULT_BUDGET:,}"
    return None


def run(rows, ctx: Context) -> VerificationReport:
    """Report, in order, every row whose expected value is known; a crash
    is a failed claim, not a crashed run.  Each object is released after
    the last row that needs it."""
    G = ctx.group
    rows = [(row, row[1](G) if callable(row[1]) else row[1]) for row in rows]
    rows = [(row, expected) for row, expected in rows if expected is not None]
    last = {name: i for i, (row, _) in enumerate(rows) for name in needs_of(row[3])}
    rep = VerificationReport()
    for i, ((cid, _, compute, needs), expected) in enumerate(rows):
        t0 = time.perf_counter()
        try:
            if compute is None:
                computed, status = None, ASSERTED
            else:
                why = over_budget(needs, G)
                if why:
                    raise groups.BudgetExceeded(why)
                computed = compute(ctx)
                status = PASS if computed == expected else FAIL
        except groups.BudgetExceeded as e:
            computed, status = f"budget exceeded: {e}", SKIPPED
        except Exception as e:
            computed, status = f"error: {type(e).__name__}: {e}", FAIL
        rep.append(Claim(cid, status, computed, expected, int((time.perf_counter() - t0) * 1000)))
        for name in [name for name, j in last.items() if j == i]:
            ctx.pop(name, None)
    return rep
