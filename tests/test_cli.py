import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mdg
from graph_io import from_graph6
from group_oracle import complete_bipartite
from mdg import claims, cli, graphs, groups, permgroups


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


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str          # stdout and stderr, interleaved as written
    exception: BaseException | None   # a nonzero SystemExit, or what escaped main


class _Stream(io.BytesIO):
    """A byte stream that also appends what is written to a shared copy."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, b):
        self.both.write(b)
        return super().write(b)

    def writelines(self, lines):
        for b in lines:
            self.write(b)


def run(*args):
    """Run the CLI in this process, with its standard output and error
    captured, and return how it ended."""
    both = io.BytesIO()
    out, err = (io.TextIOWrapper(_Stream(both), encoding="utf-8", write_through=True)
                for _ in range(2))
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as e:
            code = e.code or 0
            exception = e if code else None
        except Exception as e:
            code, exception = 1, e
    text = [s.getvalue().decode() for s in (out.buffer, err.buffer, both)]
    return Result(code, *text, exception)


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


def test_options_are_not_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("MDG_VERIFY_GROUP_N", "3")
    r = run("verify", "group", "--json")
    assert r.exit_code == 0, r.output
    order = next(c for c in json.loads(r.output)["claims"] if c["id"] == "order")
    assert order["computed"] == 256


def test_verify_group_dihedral():
    r = run("verify", "group", "--dihedral", "4,4")
    assert r.exit_code == 0
    assert "mixed-dihedral: computed=True" in r.output
    # an odd factor fails the predicate and the exit code reflects it
    assert run("verify", "group", "--dihedral", "3").exit_code == 1
    # -n is checked, and changes nothing in the dihedral report
    r = run("verify", "group", "--dihedral", "4,4", "-n", "3", "--json")
    doc = json.loads(r.stdout)
    for claim in doc["claims"]:
        del claim["ms"]
    golden = GOLDEN / "verify-group-dihedral-4-4.json"
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == golden.read_text()


@pytest.mark.parametrize("orders", ["4,x", "", "0,4"])
def test_verify_group_dihedral_malformed(orders):
    r = run("verify", "group", "--dihedral", orders)
    assert r.exit_code == 2
    assert "Invalid value for '--dihedral'" in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("orders", ["99999999999999999999", "1099511627776,1099511627776",
                                    "4611686018427387904"])
def test_verify_group_dihedral_order_from_2_63_is_a_usage_error(orders):
    """Codes are int64, so an order prod 2 m_i >= 2^63 is refused with the
    limit named (the first two inputs once ended in an OverflowError)."""
    r = run("verify", "group", "--dihedral", orders)
    assert r.exit_code == 2 and r.stdout == ""
    assert "Invalid value for '--dihedral'" in r.stderr and "2^63" in r.stderr
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
#   37.3 MB with int16 ids (Γ(3) and Σ(3)) and int32 row pointers, 36.6 MB
#   with a CLI on the standard library's argparse instead of click, 35.4 MB
#   with the Cayley graph's flags read near vertex 0, 33.2 MB with every
#   pass's blocks sized by its own temporaries, 32.9 MB with the command
#   line parsed from one table instead of argparse, 31.7 MB with Γ(3)
#   released after the two count rows, the distance and transitivity rows
#   reading the cells of the lifts about 1;
# - the coset-graph certification: 41 MB with whole coset products and
#   full-degree lifts alive during the search, 36 MB without, 34.1 MB with
#   every permutation induced from the coset representatives and the
#   refinement rows read in blocks, 33.3 MB with the coset rows listed from
#   their least members (no sort of all codes) and int16 vertex ids, 32.3 MB
#   on argparse, 32.2 MB on the table; the Cayley graph's certification
#   shares that bound: 40.3 MB when it searched Γ, 33.2 MB reading
#   |Aut(Γ)| from Σ's search by Whitney's theorem, with Γ alive for the
#   line-graph check;
# - the Cayley graph as graph6 (an 89 MB body): 301 MB when the writer
#   copied the body four times, 121 MB with the body held once, 119 MB on
#   argparse, 117.2 MB on the table;
# - the distance diagram: 52 MB with the whole vertices-by-cells count
#   matrix alive, 40-42 MB counting it a block of rows at a time (36.5 MB
#   in the last run with click), 35.8 MB on argparse, 35.5 MB on the table,
#   31.2 MB from the cells of the lifts, with no Γ(3) and no lift on all
#   codes;
# - verify group: 37.9 MB with the centre's products in blocks of 2^20,
#   33.6 MB in blocks of CHUNK, 32.7 MB with one product buffer in
#   ``TensorGroup.mul_vec``, 31.7 MB on argparse, 31.6 MB on the table.
GAMMA3_GRAPH6_SHA256 = "7ae3178cea18714d5509713aa56a7204bbda6c76526af2b033bcdb15760f5be1"
PEAK_BOUNDS_MB = {
    "verify-group-n3": (["verify", "group", "-n", "3", "--json"], 36),
    "verify-graphs-n3": (["verify", "graphs", "-n", "3", "--json"], 36),
    "aut-sigma-full-search-n3": (["aut", "-n", "3", "--target", "sigma", "--full-search",
                                  "--json"], 38),
    "aut-gamma-full-search-n3": (["aut", "-n", "3", "--target", "gamma", "--full-search",
                                  "--json"], 38),
    "export-gamma-graph6-n3": (["export", "-n", "3", "--target", "gamma", "--format", "graph6",
                                "-o", "{out}"], 220),
    "diagram-n3": (["diagram", "-n", "3"], 36),
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
    """Every coset-graph permutation comes from the coset representatives,
    and the Cayley graph's transitivity from the lifts near vertex 0: with
    the builder's branch for all codes refused, the search on Σ for either
    target and ``verify graphs -n 3`` pass; with every lift spoiled where
    the Cayley graph's claims ask for it, ``verify graphs`` fails only the
    transitivity row, the one that reads the lifts (the distance rows read
    the cells' keys)."""
    build = permgroups.action_gens
    monkeypatch.setattr(permgroups, "action_gens",
                        lambda G, info=None: build(G, info) if info is not None else _refuse())
    for args in (["aut", "-n", "2", "--target", "sigma", "--full-search", "--json"],
                 ["aut", "-n", "2", "--target", "gamma", "--full-search", "--json"],
                 ["verify", "graphs", "-n", "3", "--json"]):
        r = run(*args)
        assert r.exit_code == 0, r.output
        assert {c["status"] for c in json.loads(r.output)["claims"]} == {"pass"}
    assert len(json.loads(r.output)["claims"]) == 15

    monkeypatch.setattr(permgroups, "action_gens", build)
    _plant_a_bad_lift(monkeypatch, every=True)
    r = run("verify", "graphs", "-n", "2", "--json")
    assert r.exit_code == 1 and "Traceback" not in r.output
    assert [c["id"] for c in json.loads(r.output)["claims"] if c["status"] != "pass"] == \
        ["cayley-transitivity"]


@pytest.mark.parametrize("args, cids", [
    (["verify", "graphs", "-n", "2", "--json"], ["cayley-transitivity"]),
], ids=["verify-graphs"])
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


def _join_the_cliques_at_1(monkeypatch):
    """The neighbourhood of 1 read from S with x_0 y_0 and its inverse added."""
    local = graphs.identity_neighbourhood

    def planted(G, S):
        z = int(G.mul_vec(G.x_gens[0], G.y_gens[0]))
        return local(G, [*S, z, int(G.inv_vec(z))])

    monkeypatch.setattr(graphs, "identity_neighbourhood", planted)


def _cut_sigma_in_bfs(monkeypatch):
    bfs = graphs.bfs_layers

    def with_an_unreached_vertex(graph, v, depth=None):
        dist, layers = bfs(graph, v, depth)
        dist[-1] = -1
        return dist, layers

    monkeypatch.setattr(graphs, "bfs_layers", with_an_unreached_vertex)


@pytest.mark.parametrize("plant, why", [
    (_join_the_cliques_at_1, "Gamma is not the line graph of Sigma"),
    (_cut_sigma_in_bfs, "Sigma is not connected on more than 4 vertices"),
], ids=["gamma-not-a-line-graph", "sigma-not-connected"])
def test_the_gamma_order_needs_whitneys_premises(monkeypatch, plant, why):
    """|Aut(Γ)| is Σ's certified search order only when Γ is L(Σ) and Σ is
    connected: a neighbourhood of 1 in which an edge joins X \\ {1} to
    Y \\ {1}, or a Σ whose search from vertex 0 misses a vertex, fails
    ``full-automorphism-order-gamma`` with exit 1 and no traceback, while
    ``generated-order`` (on S) passes."""
    plant(monkeypatch)
    r = run("aut", "-n", "2", "--target", "gamma", "--full-search", "--json")
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "Traceback" not in r.output
    rows = {c["id"]: (c["status"], c["computed"]) for c in json.loads(r.output)["claims"]}
    assert rows == {"generated-order": ("pass", 18432),
                    "full-automorphism-order-gamma": ("fail", f"error: ValueError: {why}")}


def test_a_failing_builder_is_a_failed_claim(monkeypatch):
    """A derived subgroup that also holds x_0 makes the builder of G/G'
    raise, as x_0 falls into it: the three rows that read the quotient fail
    with the error as their computed value, and the semiregular row, which
    reads G' itself, fails as x_0 is not central; every other claim still
    runs and passes, with exit 1 and no traceback.  The failed build is not
    retried."""
    derived, build, calls = groups.derived_subgroup, permgroups.central_quotient, []

    def with_x0(G):
        return groups.closure_array(G, [*derived(G).tolist(), G.x_gens[0]])

    monkeypatch.setattr(groups, "derived_subgroup", with_x0)
    monkeypatch.setattr(permgroups, "central_quotient", lambda *a: calls.append(1) or build(*a))
    r = run("verify", "graphs", "-n", "2", "--json")
    assert len(calls) == 1
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "Traceback" not in r.output
    by_id = {c["id"]: c for c in json.loads(r.output)["claims"]}
    golden = json.loads((GOLDEN / "verify-graphs-n2.json").read_text())
    assert list(by_id) == [c["id"] for c in golden["claims"]]
    cover_rows = ["quotient-complete-bipartite", "quotient-preserves-valency",
                  "edge-affine-witness"]
    assert [i for i, c in by_id.items() if c["status"] != "pass"] == \
        cover_rows[:2] + ["derived-action-semiregular", "edge-affine-witness"]
    for cid in cover_rows:
        assert by_id[cid]["status"] == "fail"
        assert by_id[cid]["computed"] == "error: ValueError: the generators have rank < 4 in G/N"
    assert by_id["derived-action-semiregular"]["computed"] is False


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_diagram_with_keys_that_merge_cells_exits_1(monkeypatch, fmt):
    """``diagram`` checks the cells before it prints them: cell keys that
    cannot tell x = 0 or y = 0 merge orbits, whose sizes then miss |G|, a
    one-line error with exit 1; ``verify graphs`` fails the rows that read
    the cells."""
    invariants = permgroups._invariants
    monkeypatch.setattr(permgroups, "_invariants", lambda G, codes: invariants(G, codes) & ~3)
    r = run("diagram", "-n", "2", "--format", fmt)
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "Traceback" not in r.output and r.stdout == ""
    assert r.stderr == "the cells hold 133 codes, not |<G.gens>| = 256\n"
    r = run("verify", "graphs", "-n", "2", "--json")
    assert [c["id"] for c in json.loads(r.output)["claims"] if c["status"] != "pass"] == \
        ["cayley-transitivity", "distance-layers", "distance-diagram-reference"]


def _plant_a_bad_lift(monkeypatch, every=False):
    """Make the first stabilizer lift (or, with ``every``, each of them)
    swap the images of x_0 and x_1, codes 1 and 2, which are not twins,
    wherever those codes are asked for in ascending order: on all codes, on
    S and on the ball about vertex 0, though not on the coset probes, so
    the actions on Σ stay right."""
    build = permgroups.stabilizer_lift_images

    def with_a_bad_lift(G, codes=None):
        asked = np.arange(G.order) if codes is None else np.asarray(codes)
        one, two = asked == 1, asked == 2
        plant = np.all(np.diff(asked) > 0) and one.any() and two.any()
        for i, img in enumerate(build(G, codes)):
            if plant and (every or i == 0):
                img[one], img[two] = img[two][0], img[one][0]
            yield img

    monkeypatch.setattr(permgroups, "stabilizer_lift_images", with_a_bad_lift)


# Each command, in a fresh interpreter, imports no third-party package but
# numpy: start-up is most of a command's time at n = 3.  np.unique, and
# np.isin when it sorts, import numpy.ma on first use: several MB of peak RSS
# in a process that compiles its byte code.  No command's path needs it.
@pytest.mark.parametrize("args", [["verify", "group", "-n", "2"], ["verify", "graphs", "-n", "2"],
                                  ["aut", "-n", "2", "--target", "sigma", "--full-search"],
                                  ["aut", "-n", "5"], ["export", "-n", "2", "--format", "graph6"],
                                  ["diagram", "-n", "2"], ["diagram", "-n", "4"]],
                         ids=["verify-group", "verify-graphs", "aut-sigma-full-search", "aut-n5",
                              "export-graph6", "diagram", "diagram-n4"])
def test_commands_leave_numpy_ma_unimported(args):
    check = "import sys; before = set(sys.modules); from mdg.cli import main; " \
            "at_import = 'numpy.ma' in sys.modules; main(sys.argv[1:], standalone_mode=False); " \
            "added = {m.split('.')[0] for m in set(sys.modules) - before}; " \
            "print(at_import, 'numpy.ma' in sys.modules, " \
            "','.join(sorted(added - set(sys.stdlib_module_names))), file=sys.stderr)"
    r = subprocess.run([sys.executable, "-c", check, *args], capture_output=True, text=True,
                       timeout=60, env=fresh_env())
    assert r.returncode == 0, r.stderr
    at_import, after, third_party = r.stderr.split()[-3:]
    assert third_party == "mdg,numpy"
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


EVERY_COMMAND = (
    [["verify", suite, "-n", str(n)] for suite in ("group", "graphs") for n in range(2, 8)]
    + [["aut", "-n", str(n)] for n in range(2, 8)]
    + [["aut", "-n", str(n), "--target", t, "--full-search"] for n in (2, 3)
       for t in ("gamma", "sigma")]
    + [["diagram", "-n", str(n)] for n in (2, 3, 4)]
    + [["export", "-n", str(n), "--target", t, "--format", f] for n in (2, 3)
       for t in ("gamma", "sigma", "kbip") for f in ("graph6", "edgelist")])


def test_no_command_imports_numpy_ma():
    """Every command at every n, one after another in one fresh interpreter,
    leaves numpy.ma unimported: the set and subgroup tests search sorted
    arrays or pass assume_unique, at n >= 5 too, where np.isin sorts
    instead of tabling (about 4 s)."""
    check = "import json, sys; from mdg.cli import main\n" \
            "if 'numpy.ma' in sys.modules: sys.exit(77)\n" \
            "for args in json.loads(sys.argv[1]):\n" \
            "    main(args, standalone_mode=False)\n" \
            "    if 'numpy.ma' in sys.modules: sys.exit(f'numpy.ma after {args}')\n"
    r = subprocess.run([sys.executable, "-c", check, json.dumps(EVERY_COMMAND)],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                       timeout=120, env=fresh_env())
    if r.returncode == 77:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert r.returncode == 0, r.stderr


# argparse is 2,600 lines to compile when no byte code is cached, and its
# first message imports gettext and locale: no command needs any of them.
@pytest.mark.parametrize("args", [[], ["verify", "graphs", "-n", "2", "--json"],
                                  ["export", "-n", "2", "--target", "kbip"], ["aut", "--help"]],
                         ids=["import", "verify-graphs", "export-kbip", "aut-help"])
def test_start_up_leaves_argparse_gettext_and_locale_unimported(args):
    check = "import sys; from mdg.cli import main; " \
            "sys.argv[1:] and main(sys.argv[1:], standalone_mode=False); " \
            "print('loaded:', *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), " \
            "file=sys.stderr)"
    r = subprocess.run([sys.executable, "-c", check, *args], capture_output=True, text=True,
                       timeout=60, env=fresh_env())
    assert r.returncode == 0 and "loaded:" in r.stderr, r.stderr
    assert r.stderr.split("loaded:")[-1].split() == []


# Every record is a namedtuple: dataclasses, and the copy module it
# imports, cost a command 15-17 ms of start-up when no byte code is cached.
def test_importing_the_cli_leaves_dataclasses_and_copy_unimported():
    check = "import sys, mdg.cli; " \
            "print('loaded:', *sorted({'dataclasses', 'copy'} & set(sys.modules)), file=sys.stderr)"
    r = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                       timeout=60, env=fresh_env())
    assert r.returncode == 0 and "loaded:" in r.stderr, r.stderr
    assert r.stderr.split("loaded:")[-1].split() == []


# Only n = 2 reads the packaged reference diagram, so importlib.resources is
# imported where it is read: 13-18 ms of start-up where no site hook loads it.
def test_importing_the_cli_leaves_importlib_resources_unimported():
    check = "import importlib, sys; sys.modules.pop('importlib.resources', None); " \
            "importlib.__dict__.pop('resources', None); import mdg.cli; " \
            "print('loaded:', 'importlib.resources' in sys.modules, file=sys.stderr)"
    r = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                       timeout=60, env=fresh_env())
    assert r.returncode == 0 and r.stderr.split("loaded:")[-1].split() == ["False"], r.stderr


@pytest.mark.parametrize("args", [["verify", "graphs", "-n", "2"],
                                  ["export", "-n", "3", "--target", "gamma"]],
                         ids=["verify-graphs", "export-gamma"])
def test_a_closed_pipe_is_no_error(args, tmp_path):
    """A reader that closes standard output after one byte, as ``head -c 1``
    does, ends the command quietly: exit 0 or 1, nothing on stderr."""
    with open(tmp_path / "stderr", "wb") as err:
        p = subprocess.Popen([sys.executable, "-m", "mdg.cli", *args], stdout=subprocess.PIPE,
                             stderr=err, env=fresh_env())
        assert len(p.stdout.read(1)) == 1
        p.stdout.close()
        assert p.wait(timeout=60) in (0, 1)
    assert (tmp_path / "stderr").read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args, to_stdout", [
    (["export", "-n", "2", "-o", "/dev/full"], False), (["export", "-n", "2"], True),
    (["verify", "group", "-n", "2"], True)], ids=["export-to-file", "export", "verify-group"])
def test_a_write_error_is_one_line_on_stderr(args, to_stdout):
    """A full device, as the output file or as standard output, ends the
    command with exit 1 and one line on stderr, with no traceback."""
    with open("/dev/full", "wb") as full:
        r = subprocess.run([sys.executable, "-m", "mdg.cli", *args],
                           stdout=full if to_stdout else subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=60, env=fresh_env())
    assert r.returncode == 1
    assert r.stderr == f"mdg: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("args", [["verify", "group", "-n", "2", "--json"],
                                  ["export", "-n", "2", "--target", "sigma", "--format", "graph6"],
                                  ["verify", "graphs", "-n", "2", "--json"],
                                  ["aut", "-n", "2", "--target", "sigma", "--full-search", "--json"]],
                         ids=["verify-group", "export-sigma-graph6", "verify-graphs",
                              "aut-sigma-full-search"])
def test_the_benchmark_tracer_runs_the_cli(args, tmp_path):
    """perfbench's traced child wraps mdg's public functions and counts the
    f2 helpers it names, then runs ``cli.main(args, standalone_mode=False)``;
    its set-up builds ``cli.build_instance(3)``."""
    from mdg import f2
    assert all(callable(getattr(f2, name)) for name in ("outer", "vec_mat", "mat_mul"))
    assert callable(cli.build_instance)
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spans = tmp_path / "spans.json"
    # no byte code is written next to the benchmark's sources
    r = subprocess.run([sys.executable, str(tracer), str(spans), *args], capture_output=True,
                       timeout=60, env={**fresh_env(), "PYTHONDONTWRITEBYTECODE": "1"})
    assert r.returncode == 0, r.stderr
    assert r.stdout and json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("args", [
    ["verify", "group", "-n", "x"], ["verify", "group", "--bogus"], ["verify"], [],
    ["aut", "--target", "bogus"], ["verify", "group", "-n"], ["verify", "graphs", "extra"],
    ["aut", "--budget", "x"], ["export", "--format", "bogus"], ["aut", "--full"],
    ["verify", "graphs", "--json=1"], ["export", "-n", "2", "-o", "-h"],
    ["export", "-n", "2", "--output", "--json"], ["aut", "-n", "2", "--budget", "5"]],
    ids=["n-not-an-integer", "unknown-option", "missing-suite", "missing-command",
         "unknown-target", "missing-value", "stray-word", "unknown-option-with-a-value",
         "unknown-format", "abbreviation", "flag-with-a-value", "help-as-a-value",
         "option-as-a-value", "removed-budget-option"])
def test_usage_errors_exit_2_on_stderr(args):
    r = run(*args)
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
    assert r.stdout == "" and r.stderr.strip()
    assert "Traceback" not in r.output


HELP_DEFAULTS = {
    ("verify", "group"): {"-n": "2", "--dihedral": "None", "--json": "False"},
    ("verify", "graphs"): {"-n": "2", "--json": "False"},
    ("aut",): {"-n": "2", "--target": "gamma", "--full-search": "False", "--json": "False"},
    ("export",): {"-n": "2", "--target": "gamma", "--format": "edgelist", "--output": "-"},
    ("diagram",): {"-n": "2", "--format": "json"},
}


@pytest.mark.parametrize("args", [["--help"], ["verify", "-h"]], ids=["top", "verify"])
def test_help_lists_every_command(args):
    r = run(*args)
    assert r.exit_code == 0 and r.stderr == ""
    assert all(" ".join(words) in r.stdout for words in cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(HELP_DEFAULTS), ids="-".join)
def test_help_shows_every_option_with_its_default(command):
    r = run(*command, "--help")
    assert r.exit_code == 0 and r.stderr == ""
    text = " ".join(r.stdout.split())
    defaults = HELP_DEFAULTS[command]
    assert all(f" {option}" in text for option in defaults)
    assert re.findall(r"\(default: ([^)]*)\)", text) == list(defaults.values())


@pytest.mark.parametrize("args", [["-n", "5"], ["-n", "7"], ["--dihedral", "2000,2000,2000"],
                                  ["--dihedral", "4611686018427387903"]])
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


def _fresh_report_matches_golden(suite):
    r = run_fresh("verify", suite, "-n", "4", "--json", timeout=120)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    for claim in doc["claims"]:
        del claim["ms"]
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == \
        (GOLDEN / f"verify-{suite}-n4.json").read_text()


def test_verify_group_n4_matches_golden():
    """At n = 4 the group rows enumerate all 2^24 codes; their report, less
    the timings, is the one recorded when |<G.gens>| was counted three
    times and G' built twice (about 2 s in a fresh interpreter)."""
    _fresh_report_matches_golden("group")


def test_verify_graphs_n4_matches_golden():
    """At n = 4 the rows that read the neighbourhood of 1, |G|, G/G', the
    local action at X or the cells about 1 compute, and the rows that need
    Γ(4) or Σ(4) are skipped; the report, less the timings, is pinned
    (about 1.5 s in a fresh interpreter)."""
    _fresh_report_matches_golden("graphs")


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


# the rows that read |G| or G', and pass at n = 4 where G fits the budget
N4_ROWS = ("edge-color-counts", "quotient-complete-bipartite", "quotient-preserves-valency",
           "derived-action-semiregular", "edge-affine-witness", "cayley-transitivity")


@pytest.mark.parametrize("n", ["4", "5", "7"])
def test_verify_graphs_above_n3_skips_every_claim(n):
    """Above n = 3, Γ and Σ hold more than 2^24 entries: every claim of
    n = 3 is reported, in the same order.  The three rows that read only
    the neighbourhood of 1 pass, and so does Σ's 2-arc row, read at the
    vertex X; at n = 4, where the rows that read |G| or G/G' pass too, the
    golden pins the statuses.  Every other claim is skipped with the object
    it needs and that object's size.  The run exits 0."""
    r = run_fresh("verify", "graphs", "-n", n, "--json")
    assert r.returncode == 0, r.stderr
    reported = json.loads(r.stdout)["claims"]
    golden = json.loads((GOLDEN / "verify-graphs-n3.json").read_text())
    assert [c["id"] for c in reported] == [c["id"] for c in golden["claims"]]
    if n != "4":
        assert {c["id"] for c in reported if c["status"] == "pass"} == {
            "clique-graph-is-coset-graph", "line-graph-is-cayley-graph",
            "triangles-monochromatic", "coset-graph-2-arc-transitive"}
    for c in (c for c in reported if c["status"] != "pass"):
        assert c["status"] == "skipped", c
        assert re.fullmatch(r"budget exceeded: needs .+\(%s\): [\d,]+ entries > 16,777,216" % n,
                            c["computed"]), c
        if c["id"] in N4_ROWS:  # |G| is counted on a mask over G, and G' listed
            assert c["computed"].startswith(f"budget exceeded: needs G({n}): ")
    # the text report is ASCII, so a stream of any encoding can print it
    text = subprocess.run([sys.executable, "-m", "mdg.cli", "verify", "graphs", "-n", n],
                          capture_output=True, text=True, timeout=30,
                          env={**fresh_env(), "PYTHONIOENCODING": "ascii"})
    assert text.returncode == 0 and text.stderr == "", text.stderr


def test_diagram_n4_matches_golden():
    """At n = 4 the 23 cells come from the search about 1, with no Γ(4), and
    their least members from a scan of the codes in order that stops at
    the last cell's, 1,198,080 (about 2 s in a fresh interpreter)."""
    r = run_fresh("diagram", "-n", "4", timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "diagram-json-n4.json").read_text()


@pytest.mark.parametrize("n", ["5", "7"])
def test_diagram_above_n4_is_a_usage_error_naming_g(n):
    """The cells' sizes must sum to |<G.gens>|, counted on a mask over G."""
    r = run_fresh("diagram", "-n", n)
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert re.search(r"Invalid value for '-n': diagram needs G\(%s\): [\d,]+ entries > "
                     r"16,777,216" % n, r.stderr), r.stderr


@pytest.mark.parametrize("args", [["aut", "--full-search"], ["export", "--target", "sigma"],
                                  ["export", "--target", "gamma"]])
def test_full_degree_commands_above_n3_are_usage_errors(args):
    """The size rule refuses the objects these commands build at n = 4:
    Sigma(4) at 6 |G| entries, and Gamma(4) at |G| |S|."""
    r = run_fresh(*args, "-n", "4")
    assert r.returncode == 2 and r.stdout == "", r.stderr
    sizes = {"sigma": "Sigma(4): 100,663,296", "gamma": "Gamma(4): 503,316,480"}
    name = "gamma" if args[-1] == "gamma" else "sigma"  # the search certifies on Sigma
    assert f"needs {sizes[name]} entries > 16,777,216" in r.stderr, r.stderr


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
    for backend in ([], ["--dihedral", "4,4"]):
        for n in ("1", "9", "99"):
            r = run("verify", "group", *backend, "-n", n)
            assert r.exit_code == 2 and r.stdout == ""
            assert "n must be in [2, 7]" in r.stderr


def test_verify_graphs_n2():
    r = run("verify", "graphs", "-n", "2")
    assert r.exit_code == 0, r.output
    assert "'2-arc': False" in r.output
    assert "'2-geodesic': True" in r.output


@pytest.mark.parametrize("n", ["2", "5"])
def test_verify_graphs_json_schema(n):
    r = run("verify", "graphs", "-n", n, "--json")
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


def test_aut_full_search_fails_when_the_known_automorphisms_miss_the_swap(monkeypatch):
    """Without the swap of Σ(2)'s two sides the known automorphisms are not
    transitive on its one refined cell: the row fails with the refusal, and
    reports no order."""
    action_gens = permgroups.action_gens
    monkeypatch.setattr(permgroups, "action_gens", lambda *a: action_gens(*a)[:-1])
    r = run("aut", "-n", "2", "--target", "sigma", "--full-search", "--json")
    assert r.exit_code == 1, r.output
    full = json.loads(r.stdout)["claims"][1]
    assert (full["id"], full["status"]) == ("full-automorphism-order-sigma", "fail")
    assert full["computed"].startswith("error: ValueError: cell 0 (128 vertices) is not one orbit")


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
    assert from_graph6(r.output.strip()) == complete_bipartite(4, 4)


def test_export_to_file(tmp_path, monkeypatch):
    out = tmp_path / "g.el"
    r = run("export", "-n", "2", "-o", str(out))
    assert r.exit_code == 0
    assert len(out.read_text().strip().splitlines()) == 768
    # a value joined to its option, and the long name of -o
    r = run("export", "-n3", "--target=sigma", "--output", str(out))
    assert r.exit_code == 0, r.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_DIGESTS[3, "sigma", "edgelist"]
    # a value is taken as it is: "=" in a file name, -o joined to its value
    monkeypatch.chdir(tmp_path)
    kbip = ["export", "-n", "2", "--target", "kbip", "--format", "graph6"]
    expected = run(*kbip).stdout.encode()
    for args in (["-o", "ab=c.g6"], ["-o=ab=c.g6"], ["-oab=c.g6"], ["--output=ab=c.g6"]):
        (tmp_path / "ab=c.g6").unlink(missing_ok=True)
        r = run(*kbip, *args)
        assert r.exit_code == 0 and r.output == "", (args, r.output)
        assert (tmp_path / "ab=c.g6").read_bytes() == expected


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
        out = claims._jsonable(value)
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
    "verify-group-dihedral-4-4": ["verify", "group", "--dihedral", "4,4"],
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
