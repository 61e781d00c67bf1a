"""Construct the bit-packed 2-groups, their Cayley and coset graphs, and
verify the structural and symmetry claims about them, or export the graphs.
Every command can emit a machine-readable JSON report (schema 1).  It exits
0 when no claim failed, 1 when one did and 2 on a usage error; claims with
status "asserted" (expected but not machine-verified here) or "skipped" do
not fail a run.
"""

import contextlib
import json
import math
import os
import sys
import types

from . import claims, f2, graphs, groups, permgroups


def build_instance(n: int):
    """Group, connection set, Cayley graph, coset graph and its coset
    bookkeeping for dimension n."""
    ctx = claims.Context(groups.TensorGroup(n))
    return ctx.group, ctx.S, ctx.gamma, ctx.sigma, ctx.info


def render_diagram_table(diag: permgroups.DistanceDiagram) -> str:
    head = f"{'cell':>4} {'dist':>4} {'size':>6} {'min':>8}  counts"
    lines = [head]
    for i, (m, size, d) in enumerate(zip(diag.reps, diag.sizes, diag.distances)):
        counts = " ".join(f"{c:>3}" for c in diag.counts[i])
        lines.append(f"{i:>4} {d:>4} {size:>6} {m:>8}  {counts}")
    return "\n".join(lines)


# -- command-line wiring ---------------------------------------------------

class UsageError(Exception):
    """A command line or option value that is refused: exit 2, the message on stderr."""


def _report(rows, ctx: claims.Context, as_json: bool) -> int:
    """Run the claim rows on the context and print their report."""
    rep = claims.run(rows, ctx)
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True) if as_json else rep.render())
    return 0 if rep.ok() else 1


def _check_n(n: int):
    """Raise a usage error unless n is in [2, MAX_DIM]."""
    if not 2 <= n <= f2.MAX_DIM:
        raise UsageError(f"Invalid value for '-n': n must be in [2, {f2.MAX_DIM}]")


def _context(n: int, what: str = "", needs: str = "") -> claims.Context:
    """The objects of a run on TensorGroup(n); a usage error if n is out of
    range or ``what`` needs an object over the size rule (``claims.over_budget``)."""
    _check_n(n)
    ctx = claims.Context(groups.TensorGroup(n))
    if why := claims.over_budget(needs, ctx.group):
        raise UsageError(f"Invalid value for '-n': {what} {why}")
    return ctx


def _dihedral_orders(text: str) -> tuple:
    ms = tuple(int(p) if p.strip().isdecimal() else 0 for p in text.split(","))
    if min(ms) < 1:
        raise UsageError(f"Invalid value for '--dihedral': {text!r} is not a comma-separated "
                         "list of integers >= 1")
    if math.prod(2 * m for m in ms) >= 1 << 63:  # the codes are int64
        raise UsageError(f"Invalid value for '--dihedral': {text!r} gives an order of 2^63 "
                         "or more")
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
    return _report(claims.GRAPHS, _context(a.n), a.json)


def aut(a) -> int:
    """Compare the generated symmetry-group order against the closed-form
    value, optionally certifying it as the full automorphism group."""
    cid, expected, compute, needs = claims.SEARCH[a.target]
    # without the search the full order is asserted: no compute, nothing needed
    search = (cid, expected, compute, needs) if a.full_search else (cid, expected, None, "")
    ctx = _context(a.n, "the full automorphism search", needs if a.full_search else "")
    return _report((claims.GENERATED_ORDER, search), ctx, a.json)


def export(a) -> int:
    """Write a graph as a graph6 string or an edge list (deterministic
    bytes for a given target)."""
    _check_n(a.n)
    graph = (graphs.sigma_graph(groups.Elementary(a.n))[0] if a.target == "kbip"
             else getattr(_context(a.n, f"{a.target} export", a.target), a.target))
    # graph6 is written as its one buffer, then the newline
    chunks = ((graphs.to_graph6(graph), b"\n") if a.format == "graph6"
              else (graphs.to_edgelist(graph).encode("ascii"),))
    try:
        f = contextlib.nullcontext(sys.stdout.buffer) if a.output == "-" else open(a.output, "wb")
    except OSError as e:
        raise UsageError(f"Invalid value for '-o' / '--output': {a.output!r}: {e.strerror}") from None
    with f as out:
        out.writelines(chunks)
    return 0


def diagram(a) -> int:
    """Emit the distance diagram of the Cayley graph about vertex 0: the
    stabilizer's orbits by distance, each named by its least member, with
    inter-cell counts, for n <= 4, where G fits the size rule; at n=2 it is
    also diffed against the packaged reference data."""
    ctx = _context(a.n, "diagram", "diagram")
    try:
        diag = permgroups.least_members(ctx.group, ctx.diagram)
    except ValueError as e:  # such as a cell key that merges two orbits
        print(e, file=sys.stderr)
        return 1
    print(render_diagram_table(diag) if a.format == "table"
          else json.dumps(diag.to_dict(), indent=2, sort_keys=True))
    if a.n == 2:
        ok, why = claims.diagram_matches_reference(diag, claims.load_reference_diagram())
        if not ok:
            print(f"reference mismatch: {why}", file=sys.stderr)
            return 1
    return 0


N = ("-n", int, 2, "Dimension of the tensor-group backend.")
JSON = ("--json", bool, False, "Emit a JSON report.")
# Each command's words, its function and its options as (flags, type or choices,
# default, help); a bool option is a flag that takes no value.
COMMANDS = {
    ("verify", "group"): (verify_group, N, ("--dihedral", _dihedral_orders, None,
                          "Comma-separated dihedral half-orders, e.g. 4,4; verifies the "
                          "dihedral-product backend instead."), JSON),
    ("verify", "graphs"): (verify_graphs, N, JSON),
    ("aut",): (aut, N, ("--target", ("gamma", "sigma"), "gamma",
                        "Graph whose automorphism group to consider."),
               ("--full-search", bool, False,
                "Certify the full automorphism order from the known automorphisms (n <= 3)."),
               JSON),
    ("export",): (export, N, ("--target", ("gamma", "sigma", "kbip"), "gamma", "Graph to write."),
                  ("--format", ("graph6", "edgelist"), "edgelist", "Output format."),
                  ("-o --output", str, "-", "Output file; - is standard output.")),
    ("diagram",): (diagram, N, ("--format", ("json", "table"), "json", "Output format.")),
}


def _help(words, fn, spec) -> str:
    """The help of the command ``words``, or of mdg when ``fn`` is None."""
    lines = [f"usage: mdg {' '.join(words) or 'COMMAND'} [options]", "",
             *(line.strip() for line in (fn.__doc__ if fn else __doc__).splitlines()), ""]
    for flags, kind, default, text in spec:
        choices = " {%s}" % ",".join(kind) if isinstance(kind, tuple) else ""
        lines.append(f"  {', '.join(flags.split())}{choices}: {text} (default: {default})")
    return "\n".join(lines + ([] if fn else [f"  mdg {' '.join(w)}" for w in COMMANDS]))


def _parse(args):
    """The function of the command that ``args`` name and a namespace of its
    options; -h or --help in place of an option gives ``print`` and the help."""
    words = next((w for w in COMMANDS if w == tuple(args[:len(w)])), ())
    fn, *spec = COMMANDS.get(words, (None,))
    if fn is None:  # no command, so no option values: help anywhere is mdg's own
        if not {"-h", "--help"} & set(args):
            raise UsageError(f"no command in {' '.join(args)!r}")
        return print, _help(words, fn, spec)
    flags, values = {f: o for o in spec for f in o[0].split()}, {o: o[2] for o in spec}
    rest = iter(args[len(words):])
    for arg in rest:
        flag = arg.partition("=")[0] if arg.startswith("--") else arg[:2]
        tail, opt = arg[len(flag):], flags.get(flag)  # "", "=VALUE" or, after -n, "VALUE"
        if arg in ("-h", "--help"):
            return print, _help(words, fn, spec)
        if opt is None or opt[1] is bool and tail:
            raise UsageError(f"{arg!r} is not an option of 'mdg {' '.join(words)}'")
        kind = opt[1]
        if kind is bool:
            values[opt] = True
            continue
        # the value is joined to the flag, or is the next word unless that looks like an option
        text = tail.removeprefix("=") if tail else next(rest, None)
        if text is None or not tail and text.startswith("-") and text != "-":
            raise UsageError(f"{flag!r} needs a value")
        if kind is int and not text.removeprefix("-").isdecimal():
            raise UsageError(f"Invalid value for {flag!r}: {text!r} is not an integer")
        if isinstance(kind, tuple) and text not in kind:
            raise UsageError(f"Invalid value for {flag!r}: {text!r} is not one of {', '.join(kind)}")
        values[opt] = text if isinstance(kind, tuple) else kind(text)
    return fn, types.SimpleNamespace(**{o[0].split()[-1].lstrip("-").replace("-", "_"): v
                                        for o, v in values.items()})


def main(args=None, standalone_mode=True):
    """Run one command on ``args`` (default ``sys.argv[1:]``) and exit with its
    code; with ``standalone_mode=False`` a command that succeeds returns."""
    try:
        run, a = _parse(sys.argv[1:] if args is None else list(args))
        code = run(a)
        sys.stdout.flush()
    except UsageError as e:
        print(f"mdg: error: {e} (see mdg --help)", file=sys.stderr)
        code = 2
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
