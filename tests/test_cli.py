import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import mdg
from graph_io import from_graph6
from mdg import cli, graphs, permgroups


REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "claims"],
    "properties": {
        "schema": {"const": 1},
        "claims": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "computed", "expected", "ms"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skipped", "asserted"]},
                    "ms": {"type": "integer"},
                },
            },
        },
    },
}


def run(*args):
    return CliRunner().invoke(cli.main, args)


def test_verify_group_n2():
    r = run("verify", "group", "-n", "2")
    assert r.exit_code == 0, r.output
    assert "order: computed=256" in r.output


def test_verify_group_json_schema():
    r = run("verify", "group", "-n", "2", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    jsonschema.validate(doc, REPORT_SCHEMA)
    ids = [c["id"] for c in doc["claims"]]
    assert len(ids) == len(set(ids))  # claim ids unique


def test_options_are_not_read_from_the_environment():
    r = CliRunner().invoke(cli.main, ["verify", "group", "--json"],
                           env={"MDG_VERIFY_GROUP_N": "3"})
    assert r.exit_code == 0, r.output
    order = next(c for c in json.loads(r.output)["claims"] if c["id"] == "order")
    assert order["computed"] == 256


def test_verify_group_dihedral():
    r = run("verify", "group", "--dihedral", "4,4")
    assert r.exit_code == 0
    assert "mixed-dihedral: computed=True" in r.output
    # an odd factor fails the predicate and the exit code reflects it
    assert run("verify", "group", "--dihedral", "3").exit_code == 1


@pytest.mark.parametrize("orders", ["4,x", "", "0,4"])
def test_verify_group_dihedral_malformed(orders):
    r = run("verify", "group", "--dihedral", orders)
    assert r.exit_code == 2
    assert "Invalid value for '--dihedral'" in r.output
    assert "Traceback" not in r.output


def fresh_env():
    src = str(Path(mdg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_fresh(*args, timeout=30):
    """Run the CLI in a fresh interpreter, with a timeout in seconds; its
    stderr must hold no traceback."""
    r = subprocess.run([sys.executable, "-m", "mdg.cli", *args],
                       capture_output=True, text=True, timeout=timeout, env=fresh_env())
    assert "Traceback" not in r.stderr
    return r


# The command's interpreter prints its own peak RSS as it exits.  It is
# started by a small launcher, not by this test process: on Linux a process's
# ru_maxrss starts from the peak of the address space it was exec'd from, so
# a direct child would report pytest's peak.
LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
PRINT_PEAK = """import resource, sys
from mdg.cli import main
try:
    main(sys.argv[1:], standalone_mode=False)
finally:
    print("peak_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


# Peak-RSS bounds, in MB, of whole commands.  Each leaves room for other
# builds of Python and numpy over what the command peaked at when its bound
# was set (one run each on Linux, x86-64, CPython 3.11, numpy 2):
# - verify graphs: 79 MB with whole-arc temporaries, about 43 MB with
#   bounded blocks, 38.6 MB with int32 vertex ids and int64 row pointers,
#   37.3 MB with int16 ids (Γ(3) and Σ(3)) and int32 row pointers;
# - the coset-graph certification: 41 MB with whole coset products and
#   full-degree lifts alive during the search, 36 MB without, 34.1 MB with
#   every permutation induced from the coset representatives and the
#   refinement rows read in blocks, 33.3 MB with the coset rows listed from
#   their least members (no sort of all codes) and int16 vertex ids;
# - the Cayley graph as graph6 (an 89 MB body): 301 MB when the writer
#   copied the body four times, 121 MB with the body held once;
# - the distance diagram: 52 MB with the whole vertices-by-cells count
#   matrix alive, 40-42 MB counting it a block of rows at a time;
# - verify group: 37.9 MB with the centre's products in blocks of 2^20,
#   33.6 MB in blocks of CHUNK, 32.7 MB with one product buffer in
#   ``TensorGroup.mul_vec``.
GAMMA3_GRAPH6_SHA256 = "7ae3178cea18714d5509713aa56a7204bbda6c76526af2b033bcdb15760f5be1"
PEAK_BOUNDS_MB = {
    "verify-group-n3": (["verify", "group", "-n", "3", "--json"], 36),
    "verify-graphs-n3": (["verify", "graphs", "-n", "3", "--json"], 60),
    "aut-sigma-full-search-n3": (["aut", "-n", "3", "--target", "sigma", "--full-search",
                                  "--json"], 38),
    "export-gamma-graph6-n3": (["export", "-n", "3", "--target", "gamma", "--format", "graph6",
                                "-o", "{out}"], 220),
    "diagram-n3": (["diagram", "-n", "3"], 47),
}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in kB on Linux")
@pytest.mark.parametrize("name", sorted(PEAK_BOUNDS_MB))
def test_peak_rss_stays_bounded(name, tmp_path):
    """The command succeeds, with every claim passing or the exported bytes
    pinned, in a process that peaks under its bound."""
    args, bound = PEAK_BOUNDS_MB[name]
    out = tmp_path / "export"
    r = subprocess.run([sys.executable, "-c", LAUNCH, sys.executable, "-c", PRINT_PEAK,
                        *(a.format(out=out) for a in args)],
                       capture_output=True, text=True, timeout=120, env=fresh_env())
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    if args[0] == "export":
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GAMMA3_GRAPH6_SHA256
    elif args[0] == "diagram":
        assert r.stdout == (GOLDEN / "diagram-json-n3.json").read_text()
    else:
        assert {c["status"] for c in json.loads(r.stdout)["claims"]} == {"pass"}
    peak_mb = int(r.stderr.split("peak_kb")[-1]) / 1024
    assert peak_mb < bound, f"{' '.join(args)} peaked at {peak_mb:.1f} MB"


def _refuse(*args, **kwargs):
    raise AssertionError("a permutation of all codes was built")


def test_sigma_paths_build_no_permutation_of_all_codes(monkeypatch):
    """Every coset-graph permutation comes from the coset representatives:
    with the builder's branch for all codes refused, the search on Σ
    passes; with that branch's permutations spoiled, ``verify graphs``
    fails only the claims on the Cayley graph."""
    build = permgroups.action_gens
    monkeypatch.setattr(permgroups, "action_gens",
                        lambda G, info=None: build(G, info) if info is not None else _refuse())
    r = run("aut", "-n", "2", "--target", "sigma", "--full-search", "--json")
    assert r.exit_code == 0, r.output
    assert {c["status"] for c in json.loads(r.output)["claims"]} == {"pass"}

    def spoiled(G, info=None):
        gens = build(G, info)
        if info is None:
            for p in gens:
                p[[1, 2]] = p[[2, 1]]
        return gens

    monkeypatch.setattr(permgroups, "action_gens", spoiled)
    r = run("verify", "graphs", "-n", "2", "--json")
    assert r.exit_code == 1 and "Traceback" not in r.output
    assert [c["id"] for c in json.loads(r.output)["claims"] if c["status"] != "pass"] == \
        ["cayley-transitivity", "distance-diagram-reference"]


@pytest.mark.parametrize("args, cids", [
    (["verify", "graphs", "-n", "2", "--json"], ["cayley-transitivity", "distance-diagram-reference"]),
    (["aut", "-n", "2", "--target", "gamma", "--full-search", "--json"],
     ["full-automorphism-order-gamma"]),
], ids=["verify-graphs", "aut-gamma"])
def test_a_bad_cayley_lift_is_a_failed_claim(monkeypatch, args, cids):
    """The lifts of the Cayley graph are checked inside the claims that read
    them: a lift that is no automorphism fails those claims with exit 1,
    not a traceback."""
    _plant_a_bad_lift(monkeypatch)
    r = run(*args)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "Traceback" not in r.output
    claims = {c["id"]: c for c in json.loads(r.output)["claims"]}
    assert [i for i, c in claims.items() if c["status"] != "pass"] == cids
    for cid in cids:
        assert claims[cid]["status"] == "fail" and "automorphism" in str(claims[cid]["computed"])


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_diagram_with_a_bad_lift_exits_1(monkeypatch, fmt):
    """``diagram`` checks the lifts before it builds the diagram: a lift
    that is no automorphism is a one-line error with exit 1."""
    _plant_a_bad_lift(monkeypatch)
    r = run("diagram", "-n", "2", "--format", fmt)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "Traceback" not in r.output and r.stdout == ""
    assert r.stderr == "lift is not an automorphism\n"


def _plant_a_bad_lift(monkeypatch):
    """Make the builder's first stabilizer lift on all codes swap x_0 and
    x_1, which are not twins."""
    build = permgroups.action_gens

    def with_a_bad_lift(G, info=None):
        gens = build(G, info)
        if info is None:
            bad = gens[len(G.gens)]
            bad[[1, 2]] = bad[[2, 1]]
        return gens

    monkeypatch.setattr(permgroups, "action_gens", with_a_bad_lift)


# np.unique, and np.isin when it sorts, import numpy.ma on first use: several
# MB of peak RSS in a process that compiles its byte code.  No command's
# path needs it.
@pytest.mark.parametrize("args", [["verify", "group", "-n", "2"], ["verify", "graphs", "-n", "2"],
                                  ["aut", "-n", "2", "--target", "sigma", "--full-search"],
                                  ["aut", "-n", "5"], ["export", "-n", "2", "--format", "graph6"]],
                         ids=["verify-group", "verify-graphs", "aut-sigma-full-search", "aut-n5",
                              "export-graph6"])
def test_commands_leave_numpy_ma_unimported(args):
    check = "import sys; from mdg.cli import main; at_import = 'numpy.ma' in sys.modules; " \
            "main(sys.argv[1:], standalone_mode=False); " \
            "print(at_import, 'numpy.ma' in sys.modules, file=sys.stderr)"
    r = subprocess.run([sys.executable, "-c", check, *args], capture_output=True, text=True,
                       timeout=60, env=fresh_env())
    assert r.returncode == 0, r.stderr
    at_import, after = r.stderr.split()[-2:]
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


@pytest.mark.parametrize("args", [["-n", "5"], ["-n", "7"], ["--dihedral", "2000,2000,2000"]])
def test_verify_group_above_the_enumeration_budget_skips(args):
    """Run in a fresh interpreter, as a user would: an order above the
    enumeration budget skips every claim at once, exits 0 and prints no
    traceback."""
    r = run_fresh("verify", "group", *args, "--json")
    assert r.returncode == 0, r.stderr
    claims = json.loads(r.stdout)["claims"]
    assert claims
    for c in claims:
        assert c["status"] == "skipped", c
        assert "budget exceeded" in c["computed"]


def test_verify_group_on_eight_dihedral_factors_finishes():
    """D_4^8 has order 2^16 and 16 generators: the elementary abelian and
    relation checks decide on the generators, not on all pairs of elements,
    so every claim passes well within the timeout."""
    r = run_fresh("verify", "group", "--dihedral", "2,2,2,2,2,2,2,2", "--json", timeout=20)
    assert r.returncode == 0, r.stderr
    claims = json.loads(r.stdout)["claims"]
    assert [c["status"] for c in claims] == ["pass"] * 3, claims


def test_aut_n4_generated_order_passes():
    r = run_fresh("aut", "-n", "4", "--json")
    assert r.returncode == 0, r.stderr
    by_id = {c["id"]: c for c in json.loads(r.stdout)["claims"]}
    assert by_id["generated-order"]["status"] == "pass"
    assert by_id["generated-order"]["computed"] == 2 ** 24 * 20160 ** 2 * 2


@pytest.mark.parametrize("n", ["5", "7"])
def test_aut_above_the_enumeration_budget_skips(n):
    """Above the enumeration budget the connection set is still listed
    without a mask over G, so ``generated-order`` computes: |G| |GL(n,2)|^2 2."""
    r = run_fresh("aut", "-n", n, "--json")
    assert r.returncode == 0, r.stderr
    by_id = {c["id"]: c for c in json.loads(r.stdout)["claims"]}
    assert by_id["generated-order"]["status"] == "pass"
    k = int(n)
    gl = int(np.prod([2 ** k - 2 ** i for i in range(k)], dtype=object))
    assert by_id["generated-order"]["computed"] == 2 ** (k * k + 2 * k) * gl ** 2 * 2


@pytest.mark.parametrize("args", [["aut", "--full-search"], ["export", "--target", "sigma"],
                                  ["export", "--target", "gamma"]])
def test_full_degree_commands_above_n3_are_usage_errors(args):
    r = run_fresh(*args, "-n", "4")
    assert r.returncode == 2, r.stderr
    assert "supported for n <= 3" in r.stderr


def test_export_to_a_directory_is_a_usage_error(tmp_path):
    r = run_fresh("export", "-n", "2", "-o", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "Invalid value for '-o'" in r.stderr


def test_export_into_a_missing_directory_is_a_usage_error(tmp_path):
    r = run_fresh("export", "-n", "2", "-o", str(tmp_path / "missing" / "x.g6"))
    assert r.returncode == 2, r.stderr
    assert "Invalid value for '-o'" in r.stderr
    assert not (tmp_path / "missing").exists()


def test_export_kbip_n4_is_allowed():
    r = run("export", "-n", "4", "--target", "kbip")
    assert r.exit_code == 0, r.output
    assert len(r.output.splitlines()) == 16 * 16


def test_verify_group_invalid_n():
    assert run("verify", "group", "-n", "1").exit_code != 0
    assert run("verify", "group", "-n", "9").exit_code != 0


def test_verify_graphs_n2():
    r = run("verify", "graphs", "-n", "2")
    assert r.exit_code == 0, r.output
    assert "'2-arc': False" in r.output
    assert "'2-geodesic': True" in r.output


def test_verify_graphs_json_schema():
    r = run("verify", "graphs", "-n", "2", "--json")
    assert r.exit_code == 0
    jsonschema.validate(json.loads(r.output), REPORT_SCHEMA)


def test_aut_n2_full_search():
    r = run("aut", "-n", "2", "--full-search")
    assert r.exit_code == 0, r.output
    assert "18432" in r.output


def test_aut_n2_sigma_full_search():
    r = run("aut", "-n", "2", "--target", "sigma", "--full-search")
    assert r.exit_code == 0, r.output
    assert "full-automorphism-order-sigma" in r.output
    assert "18432" in r.output


@pytest.mark.parametrize("target", ["sigma", "gamma"])
def test_aut_n3_full_search_certifies(target):
    r = run("aut", "-n", "3", "--target", target, "--full-search", "--json")
    assert r.exit_code == 0, r.output
    by_id = {c["id"]: c for c in json.loads(r.output)["claims"]}
    full = by_id[f"full-automorphism-order-{target}"]
    assert full["status"] == "pass"
    assert full["computed"] == full["expected"] == 1849688064


def test_aut_without_search_is_asserted():
    r = run("aut", "-n", "2", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    by_id = {c["id"]: c for c in doc["claims"]}
    assert by_id["generated-order"]["status"] == "pass"
    assert by_id["full-automorphism-order-gamma"]["status"] == "asserted"
    assert by_id["full-automorphism-order-gamma"]["expected"] == 18432


def test_export_edgelist_gamma():
    r = run("export", "-n", "2", "--target", "gamma", "--format", "edgelist")
    assert r.exit_code == 0
    assert len(r.output.strip().splitlines()) == 768
    again = run("export", "-n", "2", "--target", "gamma", "--format", "edgelist")
    assert again.output == r.output  # byte-stable


def test_export_graph6_sigma_roundtrip():
    r = run("export", "-n", "2", "--target", "sigma", "--format", "graph6")
    assert r.exit_code == 0
    g = from_graph6(r.output.strip())
    assert g.n == 128 and g.is_regular() == 4


def test_export_graph6_kbip():
    r = run("export", "-n", "2", "--target", "kbip", "--format", "graph6")
    assert r.exit_code == 0
    assert from_graph6(r.output.strip()) == graphs.complete_bipartite(4, 4)


def test_export_to_file(tmp_path):
    out = tmp_path / "g.el"
    r = run("export", "-n", "2", "-o", str(out))
    assert r.exit_code == 0
    assert len(out.read_text().strip().splitlines()) == 768


def test_diagram_json():
    r = run("diagram", "-n", "2")
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    by_dist = {}
    for c in doc["cells"]:
        by_dist.setdefault(c["distance"], []).append(c["size"])
    assert [sorted(by_dist[d]) for d in sorted(by_dist)] == \
        [[1], [6], [18], [18, 36], [9, 36, 72], [18, 36], [6]]


def test_diagram_table_stable():
    a = run("diagram", "-n", "2", "--format", "table")
    b = run("diagram", "-n", "2", "--format", "table")
    assert a.exit_code == 0 and a.output == b.output
    assert "dist" in a.output


# SHA-256 of each export, recorded from the writers before they moved onto
# the CSR graph store; any byte change in a writer shows here.
EXPORT_DIGESTS = {
    (2, "gamma", "graph6"): "c8385eec2509b203f93b54116ed514d31ebdf98a639147f8b971e99b3072b7a2",
    (2, "gamma", "edgelist"): "a58c81bce77e92a572f90963dfc5e4a677ef5f3186c2ec4cb3a76c3df378cfac",
    (2, "sigma", "graph6"): "0e3eabdc3d623a4d697c3985dcf72e2699a165d342cb06fbaac7744f65645790",
    (2, "sigma", "edgelist"): "3880855de1349a8efdc83313c38b173046bbd413bcd59de820f0906d4c18a136",
    (2, "kbip", "graph6"): "8a0c068cc5eeeea44f6c5b06f45f0995d7d67fdb8d3b644d38681f3369745085",
    (2, "kbip", "edgelist"): "54d98cb3e31d082fe61f41984dc50c1ac6ba112202da16f75d2e7ddfb93a8e09",
    (3, "sigma", "graph6"): "6043af898f8a59d0ae0999eda6ad95af5795f7678f1d00f4d2ff59326d106d69",
    (3, "sigma", "edgelist"): "fdfa16c6dfa517c3ee9262166e022f2f57b5b40ef1cbeea2f51b74fe977dbd59",
    (3, "gamma", "edgelist"): "03d13c8be79a042eb4507f81ba174c4b4d783eee1ee59f707a01b875544aa41d",
}


@pytest.mark.parametrize("n,target,fmt", sorted(EXPORT_DIGESTS),
                         ids=lambda v: str(v))
def test_export_bytes_are_pinned(tmp_path, n, target, fmt):
    out = tmp_path / "export"
    r = run("export", "-n", str(n), "--target", target, "--format", fmt, "-o", str(out))
    assert r.exit_code == 0, r.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_DIGESTS[n, target, fmt]


def test_jsonable_turns_numpy_scalars_into_json_scalars():
    cases = [(np.int64(3), 3), (np.int32(-2), -2), (np.uint64(7), 7), (np.float64(2.5), 2.5),
             (np.float32(4.0), 4), (np.bool_(True), True), (np.bool_(False), False),
             ((np.int64(1), [np.bool_(True)]), [1, [True]]), ({"k": np.int16(5)}, {"k": 5})]
    for value, expected in cases:
        out = cli._jsonable(value)
        assert out == expected and json.loads(json.dumps(out)) == expected
        assert type(out) is type(expected)


def test_graph_counts_are_python_ints():
    _, _, gamma, sigma, _ = cli.build_instance(2)
    for g in (gamma, sigma):
        assert type(g.n) is int and type(g.edge_count()) is int and type(g.is_regular()) is int
    assert graphs.Graph(3, [(0, 1)]).is_regular() is None


# Reports recorded before the orbit-counting rewrite of permgroups, with the
# per-claim "ms" timings removed; every other byte must stay the same.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_ARGS = {
    "verify-group-n2": ["verify", "group", "-n", "2"],
    "verify-group-n3": ["verify", "group", "-n", "3"],
    "verify-graphs-n2": ["verify", "graphs", "-n", "2"],
    "verify-graphs-n3": ["verify", "graphs", "-n", "3"],
    "aut-sigma-full-search-n2": ["aut", "-n", "2", "--target", "sigma", "--full-search"],
    "aut-sigma-full-search-n3": ["aut", "-n", "3", "--target", "sigma", "--full-search"],
    "aut-gamma-full-search-n2": ["aut", "-n", "2", "--target", "gamma", "--full-search"],
    # recorded before the lifts became generator images through
    # TensorGroup.word_images: the lifts on S, and the full-degree lifts
    # as search seeds on gamma
    "aut-n2": ["aut", "-n", "2"],
    "aut-n3": ["aut", "-n", "3"],
    "aut-n4": ["aut", "-n", "4"],
    "aut-gamma-full-search-n3": ["aut", "-n", "3", "--target", "gamma", "--full-search"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_report_matches_golden(name):
    r = run(*GOLDEN_ARGS[name], "--json")
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    for claim in doc["claims"]:
        del claim["ms"]
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == (GOLDEN / f"{name}.json").read_text()


# The stdout of ``diagram``, recorded at the same time as the aut reports
# above; its cells are the orbits of the full-degree lifts.
@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("table", "txt")])
def test_diagram_matches_golden(n, fmt, ext):
    r = run("diagram", "-n", n, "--format", fmt)
    assert r.exit_code == 0, r.output
    assert r.output == (GOLDEN / f"diagram-{fmt}-n{n}.{ext}").read_text()
