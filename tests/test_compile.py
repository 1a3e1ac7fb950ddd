"""Each triangulation is compiled once: its validation report, tables, edge
classes, exponent matrix and canonical text are kept in its one compiled
store, every parse of one text returns that instance from the compile
cache, and h and J are evaluated over the nonzero (edge, tetrahedron)
pairs only."""
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np

import idealglue
import idealglue.fileio as fileio
import idealglue.triangulation as triangulation_mod
from idealglue import (CORPUS_NAMES, ConeTarget, ShapeAssignment,
                       VertexPermutation, all_holonomies,
                       build_exponent_matrix, build_solution_report,
                       compute_edge_classes, compute_vertex_classes, corpus,
                       develop_spanning_tree, edge_holonomy_matrix,
                       essential_edge_certificate, format_triangulation,
                       jacobian, newton_solve, parse_triangulation,
                       random_triangulation, regular_solution,
                       self_identification_report, verify_report)
from idealglue.corpus import CORPUS_TEXT
from idealglue.fileio import parse_triangulation_lenient
from idealglue.triangulation import EDGE_SLOTS, SLOT_INDEX, edge_tables, validate
from conftest import chain_cover_text, random_shapes, random_systems


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
    # the compile cache starts empty (conftest), so corpus() compiles anew
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
    report = build_solution_report(t, res.shapes, xi, res.residual_norm,
                                   certificate=cert, include_holonomy=True)
    compute_vertex_classes(t)
    self_identification_report(t)
    edge_holonomy_matrix(t, res.shapes, develop_spanning_tree(t, res.shapes).steps)
    assert len(walks) == 1
    assert build_exponent_matrix(t) is build_exponent_matrix(
        t, compute_edge_classes(t))
    # a second parse of the text is t, and the report's canonical text (the
    # corpus text, parsed above) is rebuilt and checked on t: no more walks
    assert parse_triangulation(CORPUS_TEXT["fig8_complement"]) is t
    assert report["triangulation"] == CORPUS_TEXT["fig8_complement"]
    checks = verify_report(report)
    assert checks and all(c.ok for c in checks)
    assert len(walks) == 1


def test_a_solve_and_its_report_build_no_edge_class_views(monkeypatch):
    # the solver, the report and its check read the compiled edge tables;
    # the EdgeClass views are built only when compute_edge_classes is read
    built = []
    view = triangulation_mod.EdgeClass

    def counted(index, degree, tables):
        built.append(index)
        return view(index, degree, tables)

    monkeypatch.setattr(triangulation_mod, "EdgeClass", counted)
    t = parse_triangulation(CORPUS_TEXT["fig8_in_s3"])
    regular, xi, _ = regular_solution(t)
    start = ShapeAssignment([z + 0.01j for z in regular.z])
    res = newton_solve(t, xi, start)
    cert = essential_edge_certificate(t, res, xi)
    report = build_solution_report(t, res.shapes, xi, res.residual_norm,
                                   certificate=cert, include_holonomy=True)
    checks = verify_report(report)
    assert res.converged and checks and all(c.ok for c in checks)
    assert built == []
    assert len(compute_edge_classes(t)) == 4 and built == [0, 1, 2, 3]
    compute_edge_classes(t)
    assert built == [0, 1, 2, 3]


def test_a_text_is_compiled_once_and_shared():
    text = chain_cover_text(4)
    t = parse_triangulation(text)
    E = build_exponent_matrix(t)
    pairs = E.pair_pairs
    again = parse_triangulation(text)
    assert again is t
    assert build_exponent_matrix(again) is E
    assert build_exponent_matrix(again).pair_pairs is pairs


def test_validation_is_compiled_once_per_triangulation():
    valid = parse_triangulation_lenient(chain_cover_text(3))
    invalid = parse_triangulation_lenient("tri v1\ntetrahedra 2\n")
    for t in (valid, invalid):
        assert validate(t) is validate(t)
        assert validate.__wrapped__(t) == validate(t)   # the uncompiled pass
    assert validate(valid).ok and not validate(invalid).ok


def test_a_triangulation_holds_its_pairs_and_one_compiled_store():
    # the validation, tables, edge classes, exponent matrix and text that a
    # solve, its certificate, a report with holonomy and its check compile
    # all go into the one store; nothing else is written on t
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    cert = essential_edge_certificate(t, res, xi)
    report = build_solution_report(t, res.shapes, xi, res.residual_norm,
                                   certificate=cert, include_holonomy=True)
    assert all(c.ok for c in verify_report(report))
    assert sorted(vars(t)) == ["_compiled", "_pair_array", "tetra_count"]
    held = list(map(id, t._compiled.values()))
    for value in (validate(t), edge_tables(t), build_exponent_matrix(t),
                  format_triangulation(t)):
        assert id(value) in held


def test_threads_building_one_triangulation_get_one_value_each():
    # six threads start the first build of one fresh triangulation's
    # exponent matrix and tables at once: every thread gets the one value
    # stored first, and the matrix is read off those tables
    t = parse_triangulation_lenient(chain_cover_text(32))
    barrier, got, errors = threading.Barrier(6), [], []

    def build():
        try:
            barrier.wait(timeout=30)
            got.append((build_exponent_matrix(t), edge_tables(t)))
        except Exception as err:        # reported below, after the join
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(got) == 6
    E, tables = build_exponent_matrix(t), edge_tables(t)
    assert all(e is E and tab is tables for e, tab in got)
    assert E.degree is tables.degree


def test_the_cache_holds_at_most_its_budget(monkeypatch):
    monkeypatch.setattr(fileio, "CACHE_TETRAHEDRA", 10)
    text = {n: chain_cover_text(n // 2) for n in (2, 4, 6, 16)}

    def held():
        sizes = [t.tetra_count for t in fileio._cache.values()]
        assert sum(sizes) == fileio._held
        assert sum(sizes) <= 10 or len(sizes) == 1
        return {t.tetra_count for t in fileio._cache.values()}

    two = parse_triangulation(text[2])
    parse_triangulation(text[4])
    assert parse_triangulation(text[2]) is two      # now used after n = 4
    parse_triangulation(text[6])                    # 12 > 10: n = 4 goes
    assert held() == {2, 6}
    assert parse_triangulation(text[2]) is two
    parse_triangulation(text[16])                   # held alone
    assert held() == {16}
    assert parse_triangulation(text[2]) is not two  # evicted, compiled anew
    assert held() == {2}


def test_threads_keep_the_cache_within_its_budget(monkeypatch):
    monkeypatch.setattr(fileio, "CACHE_TETRAHEDRA", 16)
    texts = [chain_cover_text(k) for k in range(1, 7)]     # n = 2 .. 12
    errors = []

    def parse_all(offset):
        try:
            for j in range(300):
                text = texts[(offset + j * (offset + 1)) % len(texts)]
                assert format_triangulation(parse_triangulation(text)) == \
                    format_triangulation(parse_triangulation(text))
        except Exception as err:        # reported below, after the join
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_all, args=(k,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    sizes = [t.tetra_count for t in fileio._cache.values()]
    assert fileio._held == sum(sizes) and (sum(sizes) <= 16 or len(sizes) == 1)


def test_memoised_format_is_the_glue_lines():
    triangulations = ([corpus(name) for name in CORPUS_NAMES]
                      + [random_triangulation(1 + seed % 6, seed=seed)
                         for seed in range(20)])
    for t in triangulations:
        expected = "\n".join(["tri v1", f"tetrahedra {t.tetra_count}"]
                             + [str(g) for g in t.gluings]) + "\n"
        assert format_triangulation(t) == expected
        assert format_triangulation(t) is format_triangulation(t)
    for name in CORPUS_NAMES:
        assert format_triangulation(corpus(name)) == CORPUS_TEXT[name]


def test_cli_import_does_not_load_scipy():
    src = pathlib.Path(idealglue.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, idealglue.cli; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_cli_import_does_not_load_dataclasses():
    # the records are NamedTuples and slot classes: no methods generated
    # and compiled on every start
    src = pathlib.Path(idealglue.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, idealglue.cli; sys.exit('dataclasses' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
