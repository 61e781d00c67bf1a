"""Command-line front end: build the groups and graphs, run the claim
checks, and export artifacts.  Every command can emit a machine-readable
JSON report (schema 1); the exit code is 0 iff no claim failed.  Claims
with status "asserted" (expected but not machine-verified here) or
"skipped" do not fail a run.
"""

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import click
import numpy as np

from . import autsearch, f2, graphs, groups, permgroups

PASS, FAIL, SKIPPED, ASSERTED = "pass", "fail", "skipped", "asserted"


@dataclass
class Claim:
    id: str
    status: str
    computed: object = None
    expected: object = None
    ms: int = 0


@dataclass
class VerificationReport:
    claims: list = field(default_factory=list)

    def claim(self, cid: str, expected, fn):
        """Evaluate fn, compare to the expected value, record the timing."""
        if any(c.id == cid for c in self.claims):
            raise ValueError(f"duplicate claim id {cid!r}")
        t0 = time.perf_counter()
        try:
            computed = fn()
            status = PASS if computed == expected else FAIL
        except groups.BudgetExceeded as e:
            computed, status = f"budget exceeded: {e}", SKIPPED
        except Exception as e:  # a crash is a failed claim, not a crashed run
            computed, status = f"error: {type(e).__name__}: {e}", FAIL
        ms = int((time.perf_counter() - t0) * 1000)
        self.claims.append(Claim(cid, status, computed, expected, ms))
        return self.claims[-1]

    def asserted(self, cid: str, expected):
        self.claims.append(Claim(cid, ASSERTED, None, expected, 0))

    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.claims)

    def to_dict(self) -> dict:
        return {"schema": 1, "claims": [
            {"id": c.id, "status": c.status, "computed": _jsonable(c.computed),
             "expected": _jsonable(c.expected), "ms": c.ms} for c in self.claims]}

    def render(self) -> str:
        lines = []
        for c in self.claims:
            lines.append(f"{c.status.upper():>8}  {c.id}: computed={c.computed!r} "
                         f"expected={c.expected!r} ({c.ms} ms)")
        verdict = "OK" if self.ok() else "FAILED"
        lines.append(f"{verdict}: {sum(c.status == PASS for c in self.claims)} passed, "
                     f"{sum(c.status == FAIL for c in self.claims)} failed, "
                     f"{len(self.claims)} total")
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


# -- shared builders (also used by the test suite) -------------------------

def build_instance(n: int):
    """Group, connection set, Cayley graph, coset graph and its coset
    bookkeeping for dimension n."""
    G = groups.TensorGroup(n)
    S = graphs.xy_connection_set(G)
    gamma = graphs.cayley_graph(G, S)
    sigma, info = graphs.sigma_graph(G)
    return G, S, gamma, sigma, info


def build_gamma(G) -> graphs.Graph:
    """The Cayley graph on the connection set (X u Y) \\ {1}."""
    return graphs.cayley_graph(G, graphs.xy_connection_set(G))


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


def load_reference_diagram() -> dict:
    with resources.files("mdg").joinpath("data/distance_diagram_n2.json").open() as f:
        return json.load(f)


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


GAMMA_EXPECTED_FLAGS = {
    "vertex": True, "edge": True, "arc": True,
    "2-arc": False, "2-geodesic": True,
    "1-distance": True, "2-distance": True, "3-distance": False,
}


# -- report builders -------------------------------------------------------

def group_report(n: int | None = None, dihedral=None) -> VerificationReport:
    rep = VerificationReport()
    if dihedral is not None:
        G = groups.DihedralProduct(*dihedral)
        rep.claim("order", G.order, lambda: groups.subgroup_order(G, G.gens))
        rep.claim("mixed-dihedral", True,
                  lambda: groups.is_mixed_dihedral(G).is_mixed_dihedral)
        rep.claim("abelianization", [2] * (2 * G.n),
                  lambda: groups.abelianization_structure(G, groups.derived_subgroup(G)))
        return rep
    G = groups.TensorGroup(n)
    rep.claim("order", 1 << (n * n + 2 * n), lambda: groups.subgroup_order(G, G.gens))
    rep.claim("relations-and-count", True, lambda: groups.verify_presentation(G))
    # computed by the first claim that needs it, so an over-budget G skips
    derived = functools.cache(lambda: groups.derived_subgroup(G))
    rep.claim("derived-order", 1 << (n * n), lambda: len(derived()))
    rep.claim("derived-equals-center", True, lambda: derived() == groups.center(G))
    rep.claim("derived-is-pure-tensors", True,
              lambda: derived() == [G.encode(0, 0, a) for a in range(1 << (n * n))])
    rep.claim("abelianization", [2] * (2 * n),
              lambda: groups.abelianization_structure(G, derived()))
    rep.claim("mixed-dihedral", True,
              lambda: groups.is_mixed_dihedral(G).is_mixed_dihedral)
    return rep


def graphs_report(n: int) -> VerificationReport:
    rep = VerificationReport()
    G, S, gamma, sigma, info = build_instance(n)
    val = 2 * ((1 << n) - 1)
    rep.claim("cayley-vertices", G.order, lambda: gamma.n)
    rep.claim("cayley-valency", val, lambda: gamma.is_regular())
    rep.claim("coset-graph-vertices", 1 << (n * n + n + 1), lambda: sigma.n)
    rep.claim("coset-graph-valency", 1 << n, lambda: sigma.is_regular())
    rep.claim("coset-graph-edges", G.order, lambda: sigma.edge_count())
    # clique i is row i, the coset that is vertex i of the coset graph
    rep.claim("clique-graph-is-coset-graph", True,
              lambda: graphs.clique_graph(gamma, graphs.coset_cliques(info)) == sigma)
    rep.claim("line-graph-is-cayley-graph", True,
              lambda: len(graphs.phi_map(gamma, sigma, info)) == G.order)
    labels = derived_orbit_partition(G, sigma, info)
    quotient, preserved = graphs.normal_quotient(sigma, labels)
    rep.claim("quotient-complete-bipartite", ((1 << n), (1 << n)),
              lambda: permgroups.is_complete_bipartite(quotient))
    rep.claim("quotient-preserves-valency", True, lambda: preserved)
    rep.claim("derived-action-semiregular", True,
              lambda: bool(np.all(np.bincount(labels)[labels] == 1 << (n * n))))
    # each claim that reads the lifts checks that they are automorphisms
    gamma_gens = permgroups.action_gens(G)
    sigma_gens = permgroups.action_gens(G, info)
    rep.claim("edge-affine-witness", True,
              lambda: _edge_affine_ok(G, labels, quotient, sigma_gens))
    rep.claim("cayley-transitivity", GAMMA_EXPECTED_FLAGS,
              lambda: permgroups.transitivity_report(
                  gamma, gamma_gens, stabilizer_certified=(n == 2)).flags())
    rep.claim("coset-graph-2-arc-transitive", True,
              lambda: permgroups.transitivity_report(sigma, sigma_gens).two_arc)
    if n == 2:
        rep.claim("distance-layers", [1, 6, 18, 54, 117, 54, 6],
                  lambda: graphs.bfs_layers(gamma, 0)[1])
        rep.claim("distance-diagram-reference", (True, "ok"),
                  lambda: diagram_matches_reference(
                      permgroups.distance_diagram(gamma, gamma_gens[len(G.gens):], 0),
                      load_reference_diagram())
                  if permgroups.are_automorphisms(gamma, gamma_gens)
                  else (False, "lift is not an automorphism"))
    # about 3 MB of permutations of all codes at n = 3, needed no further:
    # freed, the colouring passes below reuse their memory
    del gamma_gens, sigma_gens
    X = groups.closure(G, G.x_gens)
    Y = groups.closure(G, G.y_gens)
    colors = graphs.edge_coloring(gamma, G, X, Y)
    half = G.order * ((1 << n) - 1) // 2
    rep.claim("edge-color-counts", (half, half),
              lambda: (int(np.count_nonzero(colors == "X")),
                       int(np.count_nonzero(colors == "Y"))))
    rep.claim("triangles-monochromatic", True,
              lambda: graphs.triangles_monochromatic(gamma, colors))
    return rep


def _edge_affine_ok(G, labels, quotient, sigma_gens) -> bool:
    """The right multiplications by the generators of G, the first of
    ``sigma_gens``, pushed down to the quotient, witness an edge-affine
    action normalised by all of ``sigma_gens``."""
    down = [permgroups.quotient_perm(labels, p) for p in sigma_gens]
    w = permgroups.edge_affine_witness(quotient, down, down[:len(G.gens)])
    return w.ok and w.subgroup_order == 1 << (2 * G.n)


def aut_report(n: int, target: str, full_search: bool, budget: int) -> VerificationReport:
    rep = VerificationReport()
    formula = permgroups.expected_symmetry_order(n)
    G = groups.TensorGroup(n)
    def generated_order():
        S = graphs.xy_connection_set(G)
        return permgroups.generated_order(G, S, permgroups.stabilizer_lift_images(G, S))
    rep.claim("generated-order", formula, generated_order)
    if full_search:
        graph, known = _search_input(G, target)
        def run():
            res = autsearch.automorphism_group(graph, known, node_budget=budget)
            if not res.complete:
                raise groups.BudgetExceeded(f"search budget after {res.nodes} nodes")
            return res.order
        rep.claim(f"full-automorphism-order-{target}", formula, run)
    else:
        rep.asserted(f"full-automorphism-order-{target}", formula)
    return rep


def _search_input(G, target: str):
    """The graph the full search certifies and the automorphisms seeding it,
    which the search checks before it starts; on Σ they are induced from
    the coset representatives, with no permutation of all codes."""
    if target == "gamma":
        return build_gamma(G), permgroups.action_gens(G)
    sigma, info = graphs.sigma_graph(G)
    return sigma, permgroups.action_gens(G, info)


def render_diagram_table(diag: permgroups.DistanceDiagram) -> str:
    head = f"{'cell':>4} {'dist':>4} {'size':>6} {'min':>8}  counts"
    lines = [head]
    for i, (m, size, d) in enumerate(zip(diag.mins, diag.sizes, diag.distances)):
        counts = " ".join(f"{c:>3}" for c in diag.counts[i])
        lines.append(f"{i:>4} {d:>4} {size:>6} {m:>8}  {counts}")
    return "\n".join(lines)


# -- click wiring ----------------------------------------------------------

def _emit(rep: VerificationReport, as_json: bool):
    if as_json:
        click.echo(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    else:
        click.echo(rep.render())
    if not rep.ok():
        sys.exit(1)


def _check_n(n: int):
    if not 2 <= n <= f2.MAX_DIM:
        raise click.BadParameter(f"n must be in [2, {f2.MAX_DIM}]")


def _check_full_degree(n: int, what: str):
    """Anything built on all 2^(n^2+2n) codes of G needs n <= 3."""
    if n > 3:
        raise click.BadParameter(f"{what} is supported for n <= 3")


def _dihedral_orders(ctx, param, value):
    if value is None:
        return None
    try:
        ms = tuple(int(p) for p in value.split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers") from None
    if min(ms) < 1:
        raise click.BadParameter("every half-order must be >= 1")
    return ms


@click.group()
def main():
    """Construct the bit-packed 2-groups, their Cayley and coset graphs,
    and verify the structural and symmetry claims about them."""


@main.group()
def verify():
    """Run verification claim suites."""


@verify.command("group")
@click.option("-n", "n", type=int, default=2, show_default=True,
              help="Dimension of the tensor-group backend.")
@click.option("--dihedral", default=None, callback=_dihedral_orders,
              help="Comma-separated dihedral half-orders, e.g. 4,4; "
                   "verifies the dihedral-product backend instead.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
def verify_group(n, dihedral, as_json):
    """Check group order, defining relations, derived subgroup / center,
    abelianization and the mixed-dihedral predicate."""
    if dihedral is not None:
        _emit(group_report(dihedral=dihedral), as_json)
    else:
        _check_n(n)
        _emit(group_report(n=n), as_json)


@verify.command("graphs")
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def verify_graphs(n, as_json):
    """Build the Cayley and coset graphs and check counts, the clique- and
    line-graph identifications, the quotient cover, the edge-affine
    witness and the transitivity flags."""
    _check_n(n)
    _check_full_degree(n, "graph verification")
    _emit(graphs_report(n), as_json)


@main.command()
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("--target", type=click.Choice(["gamma", "sigma"]), default="gamma",
              show_default=True, help="Graph whose automorphism group to consider.")
@click.option("--full-search", is_flag=True,
              help="Run the exhaustive certification search (seconds at n=3).")
@click.option("--budget", type=int, default=1 << 20, show_default=True,
              help="Node budget for the search.")
@click.option("--json", "as_json", is_flag=True)
def aut(n, target, full_search, budget, as_json):
    """Compare the generated symmetry-group order against the closed-form
    value, optionally certifying it as the full automorphism group."""
    _check_n(n)
    if full_search:
        _check_full_degree(n, "the full automorphism search")
    _emit(aut_report(n, target, full_search, budget), as_json)


@main.command()
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("--target", type=click.Choice(["gamma", "sigma", "kbip"]),
              default="gamma", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["graph6", "edgelist"]),
              default="edgelist", show_default=True)
@click.option("-o", "--output", type=click.Path(allow_dash=True), default="-",
              show_default=True)
def export(n, target, fmt, output):
    """Write a graph as a graph6 string or an edge list (deterministic
    bytes for a given target)."""
    _check_n(n)
    if target != "kbip":
        _check_full_degree(n, f"{target} export")
    if target == "kbip":
        graph = graphs.complete_bipartite(1 << n, 1 << n)
    elif target == "gamma":
        graph = build_gamma(groups.TensorGroup(n))
    else:
        graph, _ = graphs.sigma_graph(groups.TensorGroup(n))
    # graph6 is written as its one buffer, then the newline
    chunks = ((graphs.to_graph6(graph), b"\n") if fmt == "graph6"
              else (graphs.to_edgelist(graph).encode("ascii"),))
    try:
        f = click.open_file(output, "wb")
    except OSError as e:
        raise click.BadParameter(f"{output!r}: {e.strerror}", param_hint="'-o' / '--output'") from None
    with f:
        for chunk in chunks:
            f.write(chunk)


@main.command()
@click.option("-n", "n", type=int, default=2, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]),
              default="json", show_default=True)
def diagram(n, fmt):
    """Emit the distance diagram of the Cayley graph (stabilizer orbits by
    distance with inter-cell counts); at n=2 it is also diffed against the
    packaged reference data."""
    _check_n(n)
    _check_full_degree(n, "diagram")
    G = groups.TensorGroup(n)
    gamma = build_gamma(G)
    lifts = permgroups.action_gens(G)[len(G.gens):]
    if not permgroups.are_automorphisms(gamma, lifts):
        click.echo("lift is not an automorphism", err=True)
        sys.exit(1)
    diag = permgroups.distance_diagram(gamma, lifts, 0)
    if fmt == "table":
        click.echo(render_diagram_table(diag))
    else:
        click.echo(json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    if n == 2:
        ok, why = diagram_matches_reference(diag, load_reference_diagram())
        if not ok:
            click.echo(f"reference mismatch: {why}", err=True)
            sys.exit(1)


if __name__ == "__main__":
    main()
