"""Each triangulation is compiled once: its edge classes and exponent matrix
are memoised on the instance, and h and J are evaluated over the nonzero
(edge, tetrahedron) pairs only."""
import os
import pathlib
import subprocess
import sys

import numpy as np

import idealglue
import idealglue.triangulation as triangulation_mod
from idealglue import (CORPUS_NAMES, ConeTarget, ShapeAssignment,
                       VertexPermutation, all_holonomies, build_exponent_matrix,
                       build_solution_report, compute_edge_classes,
                       compute_vertex_classes, corpus, develop_spanning_tree,
                       edge_holonomy_matrix, essential_edge_certificate,
                       jacobian, newton_solve, self_identification_report)
from idealglue.triangulation import EDGE_SLOTS, SLOT_INDEX
from conftest import random_shapes, random_systems


def parity_walk_edge_classes(t):
    """Reference walk: the exit face is chosen by the parity of
    (tail, head, c, d) at every step."""
    seen, classes = set(), []
    for tet in range(t.tetra_count):
        for (a, b) in EDGE_SLOTS:
            if (tet, a, b) in seen:
                continue
            cyc, steps = [], []
            cur = (tet, a, b)
            while True:
                tt, x, y = cur
                cyc.append((tt, (x, y)))
                c, d = (v for v in range(4) if v not in (x, y))
                exit_face = c if VertexPermutation((x, y, c, d)).parity == 0 else d
                g = t.gluing_at(tt, exit_face)
                steps.append(g)
                cur = (g.target_tet, g.perm(x), g.perm(y))
                if cur == (tet, a, b):
                    break
            for (tt, (x, y)) in cyc:
                seen.update({(tt, x, y), (tt, y, x)})
            cycle = tuple((tt, SLOT_INDEX[(min(x, y), max(x, y))], x < y)
                          for (tt, (x, y)) in cyc)
            classes.append((len(classes), cycle, tuple(steps), tuple(cyc)))
    return classes


def dense_holonomies(z, E):
    return np.prod(z ** E.a * (1.0 / (1.0 - z)) ** E.a_prime
                   * ((z - 1.0) / z) ** E.a_second, axis=1)


def dense_jacobian(z, E):
    return dense_holonomies(z, E)[:, None] * (
        E.a / z + E.a_prime / (1.0 - z) + E.a_second / (z * (z - 1.0)))


def test_pair_kernels_are_bitwise_dense_and_classes_match_parity_walk(rng):
    triangulations = ([corpus(name) for name in CORPUS_NAMES]
                      + [t for t, _, _ in random_systems()])
    for t in triangulations:
        got = [(e.index, e.cycle, e.steps, e.directed)
               for e in compute_edge_classes(t)]
        assert got == parity_walk_edge_classes(t)
        E = build_exponent_matrix(t)
        for _ in range(10):
            Z = random_shapes(rng, t.tetra_count)
            z = np.array(Z.z, dtype=complex)
            for shapes in (Z, z):
                assert np.array_equal(all_holonomies(shapes, E),
                                      dense_holonomies(z, E))
                # the values on the pairs, and zeros off them
                assert np.array_equal(E.dense(jacobian(shapes, E)),
                                      dense_jacobian(z, E))


def test_pipeline_walks_the_edges_once(monkeypatch):
    walks = []
    walk = triangulation_mod._walk_edge_classes

    def counted(t):
        walks.append(t)
        return walk(t)

    monkeypatch.setattr(triangulation_mod, "_walk_edge_classes", counted)
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    cert = essential_edge_certificate(t, res, xi)
    build_solution_report(t, res.shapes, xi, res.residual_norm,
                          certificate=cert, include_holonomy=True)
    compute_vertex_classes(t)
    self_identification_report(t)
    edge_holonomy_matrix(t, res.shapes, develop_spanning_tree(t, res.shapes).steps)
    assert len(walks) == 1
    assert build_exponent_matrix(t) is build_exponent_matrix(
        t, compute_edge_classes(t))


def test_cli_import_does_not_load_scipy():
    src = pathlib.Path(idealglue.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, idealglue.cli; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
