"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is the one stated in the criterion.
"""
import cmath
import math

import numpy as np

from idealglue import (ConeTarget, REGULAR_SHAPE, ShapeAssignment, SolverConfig,
                       V_TET, all_holonomies, branched_cover_report,
                       build_exponent_matrix, compute_edge_classes,
                       cone_locus_sample, corpus, develop_spanning_tree,
                       edge_holonomy_matrix, essential_edge_certificate,
                       format_triangulation, generator_maps,
                       jacobian, newton_solve, parse_triangulation,
                       random_starts, random_triangulation, regular_solution,
                       solution_volume)
from idealglue.cli import main as cli_main
from conftest import conjugate_match, psl2_dist, random_shapes

CORPUS = ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
          "doubled_tetrahedron")


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def hopf_xi(theta):
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    return ConeTarget(tuple(cmath.exp(1j * theta) if e.degree == 1
                            else cmath.exp(-2j * theta) for e in edges))


def test_criterion_1_hopf_family():
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    j4 = next(e.index for e in edges if e.degree == 4)
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
        res = newton_solve(t, hopf_xi(theta), ShapeAssignment((0.2 + 0.9j,)))
        assert res.converged and res.residual_norm < 1e-10
        assert abs(res.shapes[0] - cmath.exp(1j * theta)) < 1e-10
        dc = develop_spanning_tree(t, res.shapes)
        for m in generator_maps(dc):
            assert abs(abs(m.trace()) - abs(2 * math.cos(theta / 2))) < 1e-9
        M, _ = edge_holonomy_matrix(dc, t, res.shapes, j4)
        expect = cmath.exp(1j * theta) + cmath.exp(-1j * theta)
        assert min(abs(M.trace() - expect), abs(M.trace() + expect)) < 1e-9
    _report(1, "hopf family solves to z=e^{i theta} with the expected traces")


def test_criterion_2_hopf_flat_point():
    t = corpus("hopf")
    Z = ShapeAssignment((-1.0 + 0j,))
    dc = develop_spanning_tree(t, Z)
    G = [m.matrix for m in generator_maps(dc)]
    ref0 = np.array([[1j, -2j], [0, -1j]])
    ref1 = np.array([[-1j, 0], [-1j, 1j]])
    best = min(m[0] for a, b in ((0, 1), (1, 0))
               for m in [conjugate_match([(ref0, G[a]), (ref1, G[b])])]
               if m is not None)
    assert best < 1e-9

    j4 = next(e.index for e in compute_edge_classes(t) if e.degree == 4)
    M, _ = edge_holonomy_matrix(dc, t, Z, j4)
    assert np.abs(M.matrix + np.eye(2)).max() < 1e-12 or \
        np.abs(M.matrix - np.eye(2)).max() < 1e-12

    vol = solution_volume(Z)
    assert vol.total == 0.0 and vol.flat_tetrahedra == (0,)
    _report(2, "hopf z=-1 matches the reference matrices up to one "
               "conjugation; edge matrix is -identity; flat volume 0")


def test_criterion_3_trefoil_family():
    t = corpus("trefoil")
    edges = compute_edge_classes(t)
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 2.7):
        xi = ConeTarget(tuple(cmath.exp(1j * theta) if e.degree == 1
                              else cmath.exp(-1j * theta) for e in edges))
        res = newton_solve(t, xi, ShapeAssignment((0.2 + 0.9j,)))
        assert res.converged and res.residual_norm < 1e-10
        assert abs(res.shapes[0] - cmath.exp(1j * theta)) < 1e-10

        dc = develop_spanning_tree(t, res.shapes)
        G = generator_maps(dc)
        i_rot = next(i for i, g in enumerate(dc.generators)
                     if sum(g.perm(v) != v for v in range(4)) == 2)
        ginf = G[i_rot].inverse()
        g3 = G[1 - i_rot].inverse()
        g3i = g3.inverse()
        g2 = g3i @ g3i @ g3i @ ginf @ g3 @ ginf @ g3i @ ginf
        assert abs(g2.trace()) < 1e-9                      # order two
        assert psl2_dist((g2 @ g2).matrix, np.eye(2)) < 1e-9
    _report(3, "trefoil family solves to z=e^{i theta}; the order-two "
               "composite has trace 0 on the whole grid")


def test_criterion_4_fig8_complete_structure():
    t = corpus("fig8_complement")
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    assert res.converged and res.residual_norm < 1e-10
    for z in res.shapes.z:
        assert abs(z - cmath.exp(1j * math.pi / 3)) < 1e-10
    h = all_holonomies(res.shapes, E)
    assert np.abs(h - 1).max() < 1e-10
    assert abs(V_TET - 1.0149416064096536) < 1e-9
    vol = solution_volume(res.shapes)
    assert abs(vol.total - 2 * V_TET) < 1e-9
    cert = essential_edge_certificate(t, res, xi)
    assert cert.kind == "manifold" and "essential" in cert.statement
    _report(4, "figure-eight complement converges to the regular shapes; "
               "volume 2 v_tet; essential-edge certificate emitted")


def test_criterion_5_regular_solution_all_corpus():
    for name in CORPUS:
        t = corpus(name)
        edges = compute_edge_classes(t)
        Z, xi, volume = regular_solution(t)
        for e in edges:
            assert abs(abs(xi[e.index]) - 1.0) < 1e-12
            diff = cmath.phase(xi[e.index]) - e.degree * math.pi / 3
            assert abs(cmath.exp(1j * diff) - 1) < 1e-10
        assert abs(np.prod(xi.xi) - 1) < 1e-12
        assert abs(volume - t.tetra_count * V_TET) < 1e-9
        assert abs(solution_volume(Z).total - volume) < 1e-9
    _report(5, "regular solution on every corpus entry: unit xi, "
               "prod xi = 1, angles deg(e) pi/3, volume n v_tet")


def _crushed_fig8_s3_solve(xi_K=1.0, xi_1=1.0, xi_2=1.0):
    """Eliminate the degree-one edge (z0 = xi_K) and Newton-solve the
    remaining two equations z1 z2 xi_2 xi_K = z1 - 1 and
    z1 z2 xi_1 xi_K = z2 - 1."""
    z = np.array([0.5 + 0.8j, 0.5 + 0.8j])
    for _ in range(80):
        z1, z2 = z
        F = np.array([z1 * z2 * xi_2 * xi_K - (z1 - 1),
                      z1 * z2 * xi_1 * xi_K - (z2 - 1)])
        if np.linalg.norm(F) < 1e-12:
            break
        J = np.array([[z2 * xi_2 * xi_K - 1, z1 * xi_2 * xi_K],
                      [z2 * xi_1 * xi_K, z1 * xi_1 * xi_K - 1]])
        z = z + np.linalg.solve(J, -F)
    return z, np.linalg.norm(F)


def test_criterion_6_fig8_in_s3_structure():
    t = corpus("fig8_in_s3")
    cfg = SolverConfig(seed=20260810)
    starts = random_starts(t, 300, cfg)
    samples, dropped = cone_locus_sample(t, starts, cfg)
    assert len(samples) >= 200
    for Z, xi in samples[:200]:
        # xi_3 xi_K xi_1 xi_2 = 1, the product identity over all four edges
        assert abs(np.prod(xi.xi) - 1.0) < 1e-8
    z, resid = _crushed_fig8_s3_solve(1.0, 1.0, 1.0)
    assert resid < 1e-12
    for w in z:
        assert abs(w - REGULAR_SHAPE) < 1e-10
    _report(6, f"fig8-in-S^3: xi product identity on {min(len(samples), 200)} "
               "cone-locus samples; crushed system at xi=1 gives the "
               "regular shapes")


def test_criterion_7_branched_cover_bookkeeping():
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    for z, want in ((-1.0 + 0j, {1: (2, 2), 4: (1, 4)}),
                    (1j, {1: (4, 4), 4: (2, 8)})):
        Z = ShapeAssignment((z,))
        xi = ConeTarget(tuple(all_holonomies(Z, E)))
        rep = branched_cover_report(edges, xi)
        for e in edges:
            order, lifted = want[e.degree]
            entry = rep.entries[e.index]
            assert entry.order == order
            assert entry.lifted_degree == lifted
            assert entry.lifted_degree == entry.order * entry.degree
    _report(7, "hopf branched covers: orders (2,2,1)/(4,4,2) with lifted "
               "degrees (2,2,4)/(4,4,8)")


def test_criterion_8a_jacobian_vs_finite_differences(rng):
    checked = 0
    for name in CORPUS:
        t = corpus(name)
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        for _ in range(20):
            Z = random_shapes(rng, t.tetra_count)
            J = jacobian(Z, E)
            step = 1e-5
            for i in range(t.tetra_count):
                zp, zm = list(Z.z), list(Z.z)
                zp[i] += step
                zm[i] -= step
                col = (all_holonomies(ShapeAssignment(tuple(zp)), E)
                       - all_holonomies(ShapeAssignment(tuple(zm)), E)) / (2 * step)
                denom = np.maximum(np.abs(J[:, i]), 1.0)
                assert (np.abs(J[:, i] - col) / denom).max() < 1e-5
            checked += 1
    assert checked == 100
    _report("8a", "analytic Jacobian matches central differences on 100 "
                  "random instances (rel err < 1e-5)")


def test_criterion_8b_edge_closure_multiplier(rng):
    for name in CORPUS:
        t = corpus(name)
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        for _ in range(50):
            Z = random_shapes(rng, t.tetra_count)
            h = all_holonomies(Z, E)
            dc = develop_spanning_tree(t, Z)
            for e in edges:
                _, mult = edge_holonomy_matrix(dc, t, Z, e)
                err = abs(mult - h[e.index]) / max(1.0, abs(h[e.index]))
                assert err < 1e-9
    _report("8b", "edge-cycle closure with multiplier = h(e) at 50 random "
                  "shape assignments per corpus entry")


def test_criterion_8c_product_of_holonomies(rng):
    for name in CORPUS:
        t = corpus(name)
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        for _ in range(20):
            Z = random_shapes(rng, t.tetra_count)
            assert abs(np.prod(all_holonomies(Z, E)) - 1.0) < 1e-10
    _report("8c", "product of all edge holonomies is 1 at random shapes")


def test_criterion_8d_bloch_wigner_symmetries(rng):
    from idealglue import bloch_wigner
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.02, 3))
        if abs(z) < 0.05 or abs(z - 1) < 0.05:
            continue
        d = bloch_wigner(z)
        assert abs(d + bloch_wigner(z.conjugate())) < 1e-10
        assert abs(d - bloch_wigner(1 / (1 - z))) < 1e-10
        assert abs(d - bloch_wigner((z - 1) / z)) < 1e-10
    _report("8d", "Bloch-Wigner shape-triple invariance and conjugation "
                  "antisymmetry on 100 samples")


def test_criterion_8e_roundtrip_1000_random_triangulations():
    for seed in range(1000):
        t = random_triangulation(1 + seed % 6, seed=seed)
        text = format_triangulation(t)
        assert format_triangulation(parse_triangulation(text)) == text
    _report("8e", "parse/print round-trip on 1000 random triangulations")


def test_criterion_9_negative_control(capsys):
    for name in ("hopf", "trefoil"):
        code = cli_main(["solve", "--corpus", name, "--xi", "ones"])
        captured = capsys.readouterr()
        assert code == 1
        assert "degree-one" in captured.err
    _report(9, "solve --xi ones fails with the degree-one-edge diagnostic "
               "and exit code 1 on hopf and trefoil")
