"""`verify_report` against a field-by-field verifier
(`oracles.reference_verify_report`): on reports mutated as a forger or a
faulty writer might, both give the same checks (name, ok, value,
tolerance), but where a value of another JSON type stands in for a claimed
one: a bool for a number or a number for a bool, a float for an int, a
string for a number.  That check fails, with error inf."""
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from idealglue import (CORPUS_NAMES, IdealGlueError, build_solution_report,
                       corpus, essential_edge_certificate, newton_solve,
                       parse_triangulation, regular_solution, verify_report)

from conftest import chain_cover_text
from oracles import REPORT_BLOCKS, reference_verify_report

INPUTS = ("triangulation", "tol", "residual_norm", "shapes", "xi")
ROWS = ("edges", "generators", "edge_matrices")


def _reports() -> list:
    """JSON round-tripped reports of the corpus entries and the n = 4 to 32
    chain covers at their regular solutions, with and without the holonomy
    block and the certificate."""
    triangulations = [corpus(name) for name in CORPUS_NAMES]
    triangulations += [parse_triangulation(chain_cover_text(k))
                       for k in (2, 4, 8, 16)]
    out = []
    for t in triangulations:
        Z, xi, _ = regular_solution(t)
        res = newton_solve(t, xi, Z)
        cert = essential_edge_certificate(t, res, xi)
        for holonomy in (False, True):
            for certificate in (None, cert):
                report = build_solution_report(
                    t, res.shapes, xi, res.residual_norm,
                    certificate=certificate, include_holonomy=holonomy)
                out.append(json.loads(json.dumps(report)))
    return out


REPORTS = _reports()


def _paths(value, path=()):
    """(path, value) for every value a report holds, itself included."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _get(report, path):
    for key in path:
        report = report[key]
    return report


def _check_name(path) -> str:
    """The name of the check that compares the claim at `path`."""
    if path[0] in REPORT_BLOCKS:
        name = REPORT_BLOCKS[path[0]][path[1]][0]
        return f"{name} {'match' if name.endswith('labels') else 'matches'}"
    return f"{path[0]} matches"


def _rows(report, block: str, key: str) -> list:
    """The slice of each row's entries in a column of a row block."""
    width = REPORT_BLOCKS[block][key][1]
    return [slice(i, i + width)
            for i in range(0, len(report[block][key]), width)]


def _swapped(value):
    """An equal value of another JSON type, as Python's == sees it, or one
    of another type that reads as the same number; None if there is none."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return bool(value) if value in (0, 1) else float(value)
    if type(value) is float:
        return bool(value) if value in (0.0, 1.0) else repr(value)
    return None


def _mutate(report, data):
    """Apply one drawn mutation to `report` in place; return the path of a
    value given another JSON type, or None."""
    kind = data.draw(st.sampled_from([
        "none", "nudge", "drop", "add", "reorder", "truncate", "string",
        "negate", "swap"]))
    paths = list(_paths(report))
    leaves = [(p, v) for p, v in paths if p and not isinstance(v, (dict, list))]
    dicts = [p for p, v in paths if isinstance(v, dict) and v]
    blocks = [k for k in ROWS if k in report]
    if kind == "nudge":
        floats = [p for p, v in leaves if type(v) is float]
        path = data.draw(st.sampled_from(floats))
        rel = data.draw(st.sampled_from([1e-13, -1e-13, 1e-11, -1e-11]))
        _get(report, path[:-1])[path[-1]] *= 1.0 + rel
    elif kind == "drop":
        path = data.draw(st.sampled_from(dicts))
        target = _get(report, path)
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "add":
        path = data.draw(st.sampled_from(dicts))
        _get(report, path)["extra"] = data.draw(
            st.sampled_from([1, 0.5, "x", None, True, [1.0, 0.0]]))
    elif kind == "reorder" and blocks:
        name = data.draw(st.sampled_from(blocks))
        block = report[name]
        count = len(_rows(report, name, next(iter(block))))
        i, j = data.draw(st.permutations(range(count)))[:2]
        for key, column in block.items():
            a, b = (_rows(report, name, key)[k] for k in (i, j))
            column[a], column[b] = column[b], column[a]
    elif kind == "truncate" and blocks:
        block = report[data.draw(st.sampled_from(blocks))]
        column = block[data.draw(st.sampled_from(sorted(block)))]
        del column[data.draw(st.integers(0, len(column) - 1)):]
    elif kind == "string":
        path, text = data.draw(st.sampled_from(
            [(p, v) for p, v in leaves if type(v) is str]))
        _get(report, path[:-1])[path[-1]] = data.draw(
            st.sampled_from([text + "x", text[:-1], text.upper()]))
    elif kind == "negate" and "generators" in report:
        name = data.draw(st.sampled_from(["generators", "edge_matrices"]))
        key = data.draw(st.sampled_from(["matrix", "trace"]))
        row = data.draw(st.sampled_from(_rows(report, name, key)))
        column = report[name][key]
        column[row] = [-x for x in column[row]]
    elif kind == "swap":
        path, value = data.draw(st.sampled_from(
            [(p, v) for p, v in leaves if _swapped(v) is not None]))
        _get(report, path[:-1])[path[-1]] = _swapped(value)
        return path
    return None


def _outcome(verify, report):
    """The checks as comparable tuples (nan as a string), or the error."""
    try:
        checks = verify(report)
    except IdealGlueError as err:
        return type(err).__name__, str(err)
    return [(c.name, c.ok, "nan" if math.isnan(c.value) else c.value,
             c.tolerance) for c in checks]


@pytest.mark.parametrize("index", range(len(REPORTS)))
def test_every_report_verifies_the_same_as_field_by_field(index):
    report = REPORTS[index]
    want = _outcome(reference_verify_report, report)
    assert all(ok for _, ok, _, _ in want)
    assert _outcome(verify_report, report) == want


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.sampled_from(range(len(REPORTS))), st.data())
def test_mutated_reports_verify_as_field_by_field(index, data):
    report = json.loads(json.dumps(REPORTS[index]))
    swapped = _mutate(report, data)
    want = _outcome(reference_verify_report, report)
    got = _outcome(verify_report, report)
    if swapped is not None and swapped[0] not in INPUTS and isinstance(want, list):
        # the claim of another JSON type fails its check, which passed
        # field by field only because Python holds True == 1 == 1.0, or
        # read a string as the number it spells
        name = _check_name(swapped)
        want = [(n, False, math.inf, tol) if n == name else (n, ok, v, tol)
                for n, ok, v, tol in want]
    assert got == want
