"""Construct the bit-packed 2-groups, their Cayley and coset graphs, and
verify the structural and symmetry claims about them, or export the graphs.
Every command can emit a machine-readable JSON report (schema 1).  It exits
0 when no claim failed, 1 when one did and 2 on a usage error; claims with
status "asserted" (expected but not machine-verified here) or "skipped" do
not fail a run.
"""

import argparse
import contextlib
import json
import os
import sys

from . import claims, f2, graphs, groups, permgroups


def build_instance(n: int):
    """Group, connection set, Cayley graph, coset graph and its coset
    bookkeeping for dimension n."""
    ctx = claims.Context(groups.TensorGroup(n))
    return ctx.group, ctx.S, ctx.gamma, ctx.sigma, ctx.info


def render_diagram_table(diag: permgroups.DistanceDiagram) -> str:
    head = f"{'cell':>4} {'dist':>4} {'size':>6} {'min':>8}  counts"
    lines = [head]
    for i, (m, size, d) in enumerate(zip(diag.mins, diag.sizes, diag.distances)):
        counts = " ".join(f"{c:>3}" for c in diag.counts[i])
        lines.append(f"{i:>4} {d:>4} {size:>6} {m:>8}  {counts}")
    return "\n".join(lines)


# -- command-line wiring ---------------------------------------------------

def _report(rows, ctx: claims.Context, as_json: bool) -> int:
    """Run the claim rows on the context and print their report."""
    rep = claims.run(rows, ctx)
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
    if a.dihedral is None:
        return _report(claims.GROUP, claims.Context(groups.TensorGroup(a.n)), a.json)
    return _report(claims.DIHEDRAL, claims.Context(groups.DihedralProduct(*a.dihedral)), a.json)


def verify_graphs(a) -> int:
    """Build the Cayley and coset graphs and check counts, the clique- and
    line-graph identifications, the quotient cover, the edge-affine
    witness and the transitivity flags."""
    _check_n(a.n)
    return _report(claims.GRAPHS, claims.Context(groups.TensorGroup(a.n)), a.json)


def aut(a) -> int:
    """Compare the generated symmetry-group order against the closed-form
    value, optionally certifying it as the full automorphism group."""
    _check_n(a.n, "the full automorphism search" if a.full_search else None)
    cid, expected, compute, needs = claims.SEARCH[a.target]
    # without the search the full order is asserted: no compute, nothing needed
    search = (cid, expected, compute, needs) if a.full_search else (cid, expected, None, "")
    return _report((claims.GENERATED_ORDER, search),
                   claims.Context(groups.TensorGroup(a.n), a.budget), a.json)


def export(a) -> int:
    """Write a graph as a graph6 string or an edge list (deterministic
    bytes for a given target)."""
    _check_n(a.n, None if a.target == "kbip" else f"{a.target} export")
    graph = (graphs.complete_bipartite(1 << a.n, 1 << a.n) if a.target == "kbip"
             else getattr(claims.Context(groups.TensorGroup(a.n)), a.target))
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
    gamma = claims.Context(G).gamma
    lifts = permgroups.action_gens(G)[len(G.gens):]
    if not permgroups.are_automorphisms(gamma, lifts):
        print("lift is not an automorphism", file=sys.stderr)
        return 1
    diag = permgroups.distance_diagram(gamma, lifts)
    print(render_diagram_table(diag) if a.format == "table"
          else json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    if a.n == 2:
        ok, why = claims.diagram_matches_reference(diag, claims.load_reference_diagram())
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
