"""Walkthrough: boundary maps, their kernels, and the reduction tower.

The boundary map at each level eats candidate structure-group
directions and produces torsion; its kernel reproduces the next
prolongation level, computed here by two independent code paths.
"""

from tanaka import (
    G0Spec,
    complement_w,
    kernel_reports,
    make_algebra,
    prolong,
    resolve_g0,
    torsion_space,
    tower_report,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


alg = make_algebra("heisenberg3")
result = prolong(alg, resolve_g0(G0Spec("der0"), alg), max_degree=3)

banner("Torsion spaces grow quickly with the level")
for n in (1, 2):
    tor = torsion_space(result, n)
    print(f"level {n + 1}: dim Tor = {tor.total_dim} "
          f"(wedge part {len(tor.pairs_m)} pairs, "
          f"hom part {tor.w_count * len(tor.legs)} pairs)")

banner("The kernel identity, checked at levels 1..3")
for n in (0, 1, 2):
    rep = kernel_reports(result, n)
    print(f"level {rep.level}: dim Tor = {rep.dim_tor}, rank = {rep.rank}, "
          f"dim W = {rep.dim_w}, "
          f"kernel matches g^{rep.level}: {rep.gl_kernel_matches}, "
          f"hom part injective: {rep.hom_injective}")

banner("W is an exact complement of the boundary image")
w = complement_w(result, 1)
rep = kernel_reports(result, 1)
print(f"dim W = {w.dim} (= dim Tor - rank = {rep.dim_tor} - {rep.rank})")

banner("The dimension bookkeeping of the whole tower")
conf = make_algebra("abelian3")
conf_result = prolong(conf, resolve_g0(G0Spec("co"), conf), max_degree=3)
report = tower_report(conf_result)
print("  n   g^n  struct  product   Tor  rank     W  total")
for row in report.rows:
    print(f"{row.n:3d} {row.dim_g:5d} {row.dim_structure_group:7d} "
          f"{row.dim_group_product:8d} {row.dim_tor:5d} {row.rank:5d} "
          f"{row.dim_w:5d} {row.dim_total:6d}")
print(f"automorphism bound: {report.bound}")
