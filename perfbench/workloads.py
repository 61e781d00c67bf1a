"""What the benchmark runs and what it reports.

Each workload is a fixed list of `mdg` CLI commands at n = 3.  The inputs
do not depend on the seed: the paper's objects at n = 3 are single
deterministic instances, so the seed is only recorded.
"""

from dataclasses import dataclass

N = 3


@dataclass(frozen=True)
class Command:
    name: str   # used in the per-layer names cli.<name>.wall_s / .peak_rss_mb
    args: tuple


WORKLOADS = {
    # The paper's whole claim suite: group claims, then the graph claims.
    "verify-n3": (
        Command("verify_group", ("verify", "group", "-n", "3", "--json")),
        Command("verify_graphs", ("verify", "graphs", "-n", "3", "--json")),
    ),
    # Certification search on the coset graph; the only refinement traffic.
    "certify-n3-sigma": (
        Command("aut_sigma", ("aut", "-n", "3", "--target", "sigma", "--full-search", "--json")),
    ),
    # Serialization: the graphs are written out, not queried.
    "export-n3": (
        Command("export_sigma_graph6", ("export", "-n", "3", "--target", "sigma", "--format", "graph6")),
        Command("export_sigma_edgelist", ("export", "-n", "3", "--target", "sigma", "--format", "edgelist")),
        Command("export_gamma_edgelist", ("export", "-n", "3", "--target", "gamma", "--format", "edgelist")),
    ),
}

SETUP_CODE = "import mdg.cli; mdg.cli.build_instance(3)"

# f2 helpers called ~10^5-10^6 times per workload: the traced run counts
# their calls without a span.
F2_COUNTED = ("vec_mat", "mat_mul", "outer")

ALL = tuple(WORKLOADS)

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; a layer change that moves another pairing is a surprise.
PREDICTIONS = (
    ("cli.<command>.wall_s", "wall_s", "the command's own workload"),
    ("cli.<command>.peak_rss_mb", "peak_rss_mb", "the command's own workload"),
    ("cli.self_s", "wall_s", ALL),
    ("groups.{closure,center,derived_subgroup,verify_presentation,is_mixed_dihedral}.self_s, "
     "groups.closure.{calls,elements}", "wall_s", ("verify-n3",)),
    ("groups.cosets.self_s", "wall_s, setup_s", ALL),
    ("graphs.{cayley_graph,sigma_graph}.{self_s,calls}", "wall_s, setup_s", ALL),
    ("graphs.{verify_clique_cover,clique_graph,line_graph,phi_map,normal_quotient,"
     "edge_coloring,triangles_monochromatic,bfs_layers}.{self_s,calls}", "wall_s", ("verify-n3",)),
    ("graphs.{to_graph6,to_edgelist}.{self_s,calls,bytes}", "wall_s, peak_rss_mb", ("export-n3",)),
    ("graphs.{vertices_built,edges_built}", "wall_s, peak_rss_mb", ALL),
    ("permgroups.{x_side_lift,y_side_lift,swap_sides_perm,induced_sigma_perm,"
     "is_automorphism}.{self_s,calls}", "wall_s (zero on export-n3)",
     ("verify-n3", "certify-n3-sigma")),
    ("permgroups.{right_mult_perm,orbit_of,order_with_regular_normal_subgroup}.{self_s,calls}",
     "wall_s", ("verify-n3", "certify-n3-sigma")),
    ("permgroups.{quotient_perm,orbits,perm_closure,edge_affine_witness,"
     "transitivity_report}.{self_s,calls}, permgroups.perm_closure.elements",
     "wall_s", ("verify-n3",)),
    ("autsearch.refine.{self_s,calls,cells_out}, "
     "autsearch.automorphism_group.{self_s,nodes}", "wall_s", ("certify-n3-sigma",)),
    ("f2.{vec_mat,mat_mul}.calls", "wall_s, cpu_s", ("verify-n3", "certify-n3-sigma")),
    ("f2.outer.calls", "wall_s, cpu_s", ALL),
)
