"""Output checks that share no code with mdg.

Every expected value is recomputed here from n, and the exported files
are read with this module's own graph6 and edge-list readers.  A check
never raises: each operation (one claim, or one exported file) becomes
a (name, ok, note) triple.
"""

import hashlib
import json

import numpy as np


def gl_order(n):
    """|GL(n, 2)| = prod_{i<n} (2^n - 2^i)."""
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def expected_claims(n):
    """Claim id -> expected computed value, per claim-producing command."""
    order = 1 << (n * n + 2 * n)
    symmetry_order = order * gl_order(n) ** 2 * 2   # 2^15 * 168^2 * 2 at n = 3
    half = order * ((1 << n) - 1) // 2
    return {
        "verify_group": {
            "order": order,
            "relations-and-count": True,
            "derived-order": 1 << (n * n),
            "derived-equals-center": True,
            "derived-is-pure-tensors": True,
            "abelianization": [2] * (2 * n),
            "mixed-dihedral": True,
        },
        "verify_graphs": {
            "cayley-vertices": order,
            "cayley-valency": 2 * ((1 << n) - 1),
            "coset-graph-vertices": 1 << (n * n + n + 1),
            "coset-graph-valency": 1 << n,
            "coset-graph-edges": order,
            "clique-graph-is-coset-graph": True,
            "line-graph-is-cayley-graph": True,
            "quotient-complete-bipartite": [1 << n, 1 << n],
            "quotient-preserves-valency": True,
            "derived-action-semiregular": True,
            "edge-affine-witness": True,
            "cayley-transitivity": {
                "vertex": True, "edge": True, "arc": True, "2-arc": False,
                "2-geodesic": True, "1-distance": True, "2-distance": True,
                "3-distance": False,
            },
            "coset-graph-2-arc-transitive": True,
            "edge-color-counts": [half, half],
            "triangles-monochromatic": True,
        },
        "aut_sigma": {
            "generated-order": symmetry_order,
            "full-automorphism-order-sigma": symmetry_order,
        },
    }


def check_claims(exit_code, data, expected):
    """One operation per expected claim, plus one failed operation per
    claim the report has but the expected set lacks."""
    try:
        claims = {c["id"]: c for c in json.loads(data)["claims"]}
        problem = None
    except (ValueError, KeyError, TypeError) as e:
        claims, problem = {}, f"unreadable report: {type(e).__name__}: {e}"
    ops = []
    for cid, want in expected.items():
        c = claims.pop(cid, None)
        if exit_code != 0:
            note = f"command exited {exit_code}"
        elif c is None:
            note = problem or "claim missing"
        elif c.get("status") != "pass":
            note = f"status {c.get('status')!r}"
        elif c.get("computed") != c.get("expected"):
            note = f"computed {c.get('computed')!r} != reported expected {c.get('expected')!r}"
        elif c["computed"] != want:
            note = f"computed {c['computed']!r} != {want!r}"
        else:
            note = None
        ops.append((cid, note is None, note))
    ops += [(cid, False, "unexpected claim") for cid in claims]
    return ops


def read_graph6(data):
    """(n, edges) of a graph6 string; edges is an (m, 2) array, u < v."""
    body = np.frombuffer(data.rstrip(b"\n"), dtype=np.uint8).astype(np.int64) - 63
    if body.size == 0 or body.min() < 0 or body.max() > 63:
        raise ValueError("not a graph6 string")
    if body[0] < 63:
        n, body = int(body[0]), body[1:]
    elif body.size > 1 and body[1] < 63:
        n, body = int((body[1] << 12) | (body[2] << 6) | body[3]), body[4:]
    else:
        raise ValueError("graph6 size field beyond 258047 vertices")
    nbits = n * (n - 1) // 2
    if body.size != (nbits + 5) // 6:
        raise ValueError("graph6 body has the wrong length")
    chars = np.flatnonzero(body)
    bits = (body[chars, None] >> np.arange(5, -1, -1)) & 1
    rows, cols = np.nonzero(bits)
    k = chars[rows] * 6 + cols          # bit index in the upper-triangle order
    if k.size and k.max() >= nbits:
        raise ValueError("graph6 padding bits are set")
    # bit k is the pair (i, j), i < j, with k = j (j - 1) / 2 + i
    j = np.floor((1 + np.sqrt(1 + 8 * k.astype(np.float64))) / 2).astype(np.int64)
    j -= j * (j - 1) // 2 > k
    j += (j + 1) * j // 2 <= k
    return n, np.stack([k - j * (j - 1) // 2, j], axis=1)


def read_edgelist(data):
    """(lines, edges) of a "u v" per line edge list; edges as (m, 2), u < v."""
    lines = data.count(b"\n")
    if data and not data.endswith(b"\n"):
        raise ValueError("last line is not terminated")
    vals = np.array(data.split(), dtype=np.int64)
    if vals.size != 2 * lines:
        raise ValueError("a line does not hold exactly two vertices")
    return lines, np.sort(vals.reshape(-1, 2), axis=1)


def _shape_problem(edges, n, m, k):
    """Why edges is not a simple k-regular graph on n vertices with m
    edges, or None."""
    if len(edges) != m:
        return f"{len(edges)} edges, expected {m}"
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        return "vertex out of range"
    if np.any(edges[:, 0] == edges[:, 1]):
        return "loop"
    if len(np.unique(edges[:, 0] * n + edges[:, 1])) != len(edges):
        return "repeated edge"
    deg = np.bincount(edges.ravel(), minlength=n)
    if deg.min() != k or deg.max() != k:
        return f"valency in [{deg.min()}, {deg.max()}], expected {k}"
    return None


def _edge_keys(n, edges):
    return np.sort(edges[:, 0] * n + edges[:, 1])


def check_exports(n, outputs):
    """One operation per exported file in outputs (command name ->
    (exit code, bytes)).  The Sigma graph6 file must also have the same
    edge set as the Sigma edge list."""
    order = 1 << (n * n + 2 * n)
    sigma_n, sigma_k = 1 << (n * n + n + 1), 1 << n
    gamma_k = 2 * ((1 << n) - 1)
    ops, sigma_edges = [], None

    def run(name, check):
        exit_code, data = outputs[name]
        try:
            note = f"command exited {exit_code}" if exit_code != 0 else check(data)
        except Exception as e:  # a malformed file is a failed operation
            note = f"{type(e).__name__}: {e}"
        ops.append((name, note is None, note))

    def sigma_edgelist(data):
        nonlocal sigma_edges
        _, edges = read_edgelist(data)
        sigma_edges = edges
        return _shape_problem(edges, sigma_n, order, sigma_k)

    def sigma_graph6(data):
        nv, edges = read_graph6(data)
        if nv != sigma_n:
            return f"{nv} vertices, expected {sigma_n}"
        problem = _shape_problem(edges, sigma_n, order, sigma_k)
        if problem is None and sigma_edges is None:
            problem = "no Sigma edge list to compare with"
        if problem is None and not np.array_equal(_edge_keys(nv, edges),
                                                  _edge_keys(nv, sigma_edges)):
            problem = "edge set differs from the Sigma edge list"
        return problem

    def gamma_edgelist(data):
        lines, edges = read_edgelist(data)
        want = order * gamma_k // 2
        if lines != want:
            return f"{lines} lines, expected {want}"
        return _shape_problem(edges, order, want, gamma_k)

    for name, check in (("export_sigma_edgelist", sigma_edgelist),
                        ("export_sigma_graph6", sigma_graph6),
                        ("export_gamma_edgelist", gamma_edgelist)):
        if name in outputs:
            run(name, check)
    return ops


def check_outputs(n, outputs):
    """All operations of one workload iteration; outputs maps command
    name -> (exit code, stdout bytes)."""
    ops = []
    for name, expected in expected_claims(n).items():
        if name in outputs:
            exit_code, data = outputs[name]
            ops += [(f"{name}:{cid}", ok, note)
                    for cid, ok, note in check_claims(exit_code, data, expected)]
    return ops + check_exports(n, outputs)


def digest(data):
    return hashlib.sha256(data).hexdigest()
