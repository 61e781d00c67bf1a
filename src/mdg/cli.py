"""Construct the bit-packed 2-groups, their Cayley and coset graphs, and
verify the structural and symmetry claims about them, or export the graphs.
Every command can emit a machine-readable JSON report (schema 1).  It exits
0 when no claim failed, 1 when one did and 2 on a usage error; claims with
status "asserted" (expected but not machine-verified here) or "skipped" do
not fail a run.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

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
        lines = [f"{c.status.upper():>8}  {c.id}: computed={c.computed!r} "
                 f"expected={c.expected!r} ({c.ms} ms)" for c in self.claims]
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
    rep.claim("derived-equals-center", True, lambda: np.array_equal(derived(), groups.center(G)))
    rep.claim("derived-is-pure-tensors", True,
              lambda: np.array_equal(derived(), np.arange(1 << (n * n)) << (2 * n)))
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
                      permgroups.distance_diagram(gamma, gamma_gens[len(G.gens):]),
                      load_reference_diagram())
                  if permgroups.are_automorphisms(gamma, gamma_gens)
                  else (False, "lift is not an automorphism"))
    # about 3 MB of permutations of all codes at n = 3, needed no further:
    # freed, the colouring passes below reuse their memory
    del gamma_gens, sigma_gens
    X = groups.closure_array(G, G.x_gens)
    Y = groups.closure_array(G, G.y_gens)
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
    graph, info = (build_gamma(G), None) if target == "gamma" else graphs.sigma_graph(G)
    return graph, permgroups.action_gens(G, info)


def render_diagram_table(diag: permgroups.DistanceDiagram) -> str:
    head = f"{'cell':>4} {'dist':>4} {'size':>6} {'min':>8}  counts"
    lines = [head]
    for i, (m, size, d) in enumerate(zip(diag.mins, diag.sizes, diag.distances)):
        counts = " ".join(f"{c:>3}" for c in diag.counts[i])
        lines.append(f"{i:>4} {d:>4} {size:>6} {m:>8}  {counts}")
    return "\n".join(lines)


# -- command-line wiring ---------------------------------------------------

def _emit(rep: VerificationReport, as_json: bool) -> int:
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True) if as_json else rep.render())
    return 0 if rep.ok() else 1


def _check_n(n: int, full_degree: str | None = None):
    """Raise a usage error unless n is in [2, MAX_DIM] and, when the command
    builds ``full_degree`` on all 2^(n^2+2n) codes of G, n <= 3."""
    if not 2 <= n <= f2.MAX_DIM:
        raise argparse.ArgumentError(None, f"Invalid value: n must be in [2, {f2.MAX_DIM}]")
    if full_degree and n > 3:
        raise argparse.ArgumentError(None, f"Invalid value: {full_degree} is supported for n <= 3")


def _dihedral_orders(text: str) -> tuple:
    try:
        ms = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")
    if min(ms) < 1:
        raise argparse.ArgumentTypeError("every half-order must be >= 1")
    return ms


def verify_group(a) -> int:
    """Check group order, defining relations, derived subgroup / center,
    abelianization and the mixed-dihedral predicate."""
    _check_n(a.n)
    return _emit(group_report(a.n, a.dihedral), a.json)


def verify_graphs(a) -> int:
    """Build the Cayley and coset graphs and check counts, the clique- and
    line-graph identifications, the quotient cover, the edge-affine
    witness and the transitivity flags."""
    _check_n(a.n, "graph verification")
    return _emit(graphs_report(a.n), a.json)


def aut(a) -> int:
    """Compare the generated symmetry-group order against the closed-form
    value, optionally certifying it as the full automorphism group."""
    _check_n(a.n, "the full automorphism search" if a.full_search else None)
    return _emit(aut_report(a.n, a.target, a.full_search, a.budget), a.json)


def export(a) -> int:
    """Write a graph as a graph6 string or an edge list (deterministic
    bytes for a given target)."""
    _check_n(a.n, None if a.target == "kbip" else f"{a.target} export")
    if a.target == "kbip":
        graph = graphs.complete_bipartite(1 << a.n, 1 << a.n)
    else:
        G = groups.TensorGroup(a.n)
        graph = build_gamma(G) if a.target == "gamma" else graphs.sigma_graph(G)[0]
    # graph6 is written as its one buffer, then the newline
    chunks = ((graphs.to_graph6(graph), b"\n") if a.format == "graph6"
              else (graphs.to_edgelist(graph).encode("ascii"),))
    try:
        f = (contextlib.nullcontext(sys.stdout.buffer) if a.output == "-"
             else open(a.output, "wb"))
    except OSError as e:
        raise argparse.ArgumentError(
            None, f"Invalid value for '-o' / '--output': {a.output!r}: {e.strerror}") from None
    with f as out:
        out.writelines(chunks)
    return 0


def diagram(a) -> int:
    """Emit the distance diagram of the Cayley graph (stabilizer orbits by
    distance with inter-cell counts); at n=2 it is also diffed against the
    packaged reference data."""
    _check_n(a.n, "diagram")
    G = groups.TensorGroup(a.n)
    gamma = build_gamma(G)
    lifts = permgroups.action_gens(G)[len(G.gens):]
    if not permgroups.are_automorphisms(gamma, lifts):
        print("lift is not an automorphism", file=sys.stderr)
        return 1
    diag = permgroups.distance_diagram(gamma, lifts)
    print(render_diagram_table(diag) if a.format == "table"
          else json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    if a.n == 2:
        ok, why = diagram_matches_reference(diag, load_reference_diagram())
        if not ok:
            print(f"reference mismatch: {why}", file=sys.stderr)
            return 1
    return 0


def _parser() -> argparse.ArgumentParser:
    """The parser of every command; its namespace holds the command as ``run``."""
    style = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter, exit_on_error=False)
    parser = argparse.ArgumentParser(prog="mdg", description=__doc__, **style)
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="Run verification claim suites.", **style)
    verify = verify.add_subparsers(dest="suite", required=True)

    def command(group, name, fn):
        p = group.add_parser(name, help=fn.__doc__, description=fn.__doc__, **style)
        p.set_defaults(run=fn)
        p.add_argument("-n", type=int, default=2, help="Dimension of the tensor-group backend.")
        return p

    report = dict(action="store_true", help="Emit a JSON report.")
    p = command(verify, "group", verify_group)
    p.add_argument("--dihedral", type=_dihedral_orders,
                   help="Comma-separated dihedral half-orders, e.g. 4,4; "
                        "verifies the dihedral-product backend instead.")
    p.add_argument("--json", **report)
    command(verify, "graphs", verify_graphs).add_argument("--json", **report)
    p = command(commands, "aut", aut)
    p.add_argument("--target", choices=["gamma", "sigma"], default="gamma",
                   help="Graph whose automorphism group to consider.")
    p.add_argument("--full-search", action="store_true",
                   help="Run the exhaustive certification search (seconds at n=3).")
    p.add_argument("--budget", type=int, default=1 << 20, help="Node budget for the search.")
    p.add_argument("--json", **report)
    p = command(commands, "export", export)
    p.add_argument("--target", choices=["gamma", "sigma", "kbip"], default="gamma",
                   help="Graph to write.")
    p.add_argument("--format", choices=["graph6", "edgelist"], default="edgelist",
                   help="Output format.")
    p.add_argument("-o", "--output", default="-", help="Output file; - is standard output.")
    command(commands, "diagram", diagram).add_argument(
        "--format", choices=["json", "table"], default="json", help="Output format.")
    return parser


def main(args=None, standalone_mode=True):
    """Run one command on ``args`` (default ``sys.argv[1:]``) and exit with its
    code; with ``standalone_mode=False`` a command that succeeds returns."""
    parser = _parser()
    try:
        a = parser.parse_args(args)
        code = a.run(a)
        sys.stdout.flush()
    except argparse.ArgumentError as e:
        parser.error(f"Invalid value for '{e.argument_name}': {e.message}"
                     if e.argument_name else e.message)
    except OSError as e:
        # stdout goes to /dev/null, so the flush at exit cannot fail; a closed pipe needs no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(e, BrokenPipeError):
            print(f"mdg: cannot write output: {e.strerror}", file=sys.stderr)
        code = 1
    if code or standalone_mode:
        sys.exit(code)


if __name__ == "__main__":
    main()
