"""idealglue benchmark: three workloads through the package's public
functions and its command line, every answer checked against a reference.

    python3 bench/run.py --workload cover_certify --seed 1 --seconds 10 --trace 0

Runs from a source checkout (imports `src/idealglue`).  With `--trace 0` the
last stdout line is a JSON object whose metrics are the end-to-end metrics;
with `--trace 1` they are the per-module metrics of a traced run, and the
spans are written to `bench/out/`.  End-to-end times are seconds at
reference speed (`reference.py`).  See bench/README.md.
"""
import os

# One BLAS thread, for this process and the ones it starts; set before numpy
# is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference
import spans

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
TAIL_BEYOND = 10            # ops beyond the reported tail percentile

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)

PER_LAYER = (
    ("gluing.holonomies.calls", "count"),
    ("gluing.holonomies.self_s", "s"),
    ("gluing.jacobian.calls", "count"),
    ("gluing.jacobian.self_s", "s"),
    ("gluing.residual.calls", "count"),
    ("gluing.exponent_matrix.calls", "count"),
    ("gluing.exponent_matrix.self_s", "s"),
    ("triangulation.edge_classes.calls", "count"),
    ("triangulation.edge_classes.self_s", "s"),
    ("solver.newton.calls", "count"),
    ("solver.newton.self_s", "s"),
    ("solver.iterations", "count"),
    ("solver.step_accept_ratio", "1"),
    ("solver.converged_ratio", "1"),
    ("solver.sweep.self_s", "s"),
    ("solver.sample.self_s", "s"),
    ("solver.sample.kept_ratio", "1"),
    ("solver.certificate.self_s", "s"),
    ("solver.cover_report.self_s", "s"),
    ("develop.spanning_tree.self_s", "s"),
    ("develop.edge_matrix.calls", "count"),
    ("develop.edge_matrix.self_s", "s"),
    ("develop.face_steps", "count"),
    ("develop.verified_n_max", "count"),
    ("geometry.volume.self_s", "s"),
    ("geometry.cone_angles.self_s", "s"),
    ("report.build.self_s", "s"),
    ("report.verify.self_s", "s"),
    ("report.json_bytes", "B"),
    ("fileio.parse.calls", "count"),
    ("fileio.parse.self_s", "s"),
    ("fileio.format.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.certify_s", "s"),
    ("cli.verify_s", "s"),
    ("trace.untraced_ops_per_s", "op/s"),
    ("trace.traced_ops_per_s", "op/s"),
    ("trace.overhead_ratio", "1"),
)


class Clock:
    """Times the program's part of one op (`with clock:`).  Before the
    timer starts it reads the host's speed from `speed`, a
    `reference.Speed`; `wall` is the op's wall time and `seconds` that time
    at reference speed.  When a tracer is set, the tracer is installed for
    that op only and the timed interval is the op's root span."""

    def __init__(self, env: dict, workdir: pathlib.Path, speed):
        self.env = env
        self.speed = speed
        self.cwd = ROOT
        self.child_script = BENCH / "cli_child.py"
        self.spans_path = workdir / "child-spans.json"
        self.tracer = None
        self.seconds = 0.0
        self.wall = 0.0
        self.factor = 1.0
        self._ops = 0
        self._start = 0.0

    def __enter__(self):
        self.factor = self.speed.factor()
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.begin_op(self._ops)
        self._ops += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        self.seconds = self.wall * self.factor
        if self.tracer is not None:
            self.tracer.end_op()
            self.tracer.uninstall()
        return False


def measure_setup(wl, clock, start_speed) -> float:
    """Median over SETUP_REPEATS of: a fresh interpreter's
    `import idealglue` (scaled by `start_speed`), parsing the run's inputs
    and one warm-up op (scaled by the clock's speed); in seconds at
    reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        factor = start_speed.factor()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import idealglue"],
                       env=clock.env, cwd=ROOT, check=True, timeout=120)
        imported = time.perf_counter() - start
        factor_parse = clock.speed.factor()
        start = time.perf_counter()
        wl.parse_inputs()
        parsed = time.perf_counter() - start
        wl.run(wl.warmup_op, clock)
        times.append(imported * factor + parsed * factor_parse
                     + clock.seconds)
    return statistics.median(times)


def measure(wl, clock, seconds: float, tracers=(None,)) -> list:
    """Whole passes over the workload's fixed op sequence until `seconds`
    have elapsed (at least one).  Each op runs once per entry of `tracers`
    (None: untraced), back to back, so that the variants see the same host
    load.  Returns, per entry, its passes; a pass is
    [(latency, wall, factor, outcome), ...] with the latency at reference
    speed."""
    passes = [[] for _ in tracers]
    start = time.perf_counter()
    while not passes[0] or time.perf_counter() - start < seconds:
        for runs in passes:
            runs.append([])
        for op in wl.ops:
            for tracer, runs in zip(tracers, passes):
                clock.tracer = tracer
                outcome = wl.run(op, clock)
                runs[-1].append((clock.seconds, clock.wall, clock.factor,
                                 outcome))
        clock.tracer = None
    return passes


def tail_rank(count: int) -> int:
    """1-based rank of the highest percentile with TAIL_BEYOND ops beyond."""
    return max(1, count - TAIL_BEYOND)


def pass_stats(ops, column: int = 0) -> dict:
    """Ops per second of op time, median and tail latency of one pass, from
    the latencies at reference speed (column 0) or the wall times (1)."""
    lat = sorted(op[column] for op in ops)
    return {"ops_per_s": len(lat) / sum(lat),
            "op_s.p50": statistics.median(lat),
            "op_s.tail": lat[tail_rank(len(lat)) - 1]}


def median_over_passes(passes, key: str, column: int = 0) -> float:
    return statistics.median(pass_stats(p, column)[key] for p in passes)


def outcomes(passes) -> list:
    return [op[-1] for p in passes for op in p]


def end_to_end(passes, setup_s: float, rss_mb: float) -> dict:
    results = outcomes(passes)
    ok = sum(o.status == "ok" for o in results)
    return {
        "ops_per_s": median_over_passes(passes, "ops_per_s"),
        "op_s.p50": median_over_passes(passes, "op_s.p50"),
        "op_s.tail": median_over_passes(passes, "op_s.tail"),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_ratio": ok / len(results),
    }


def per_layer(tracer, wl, traced_ops: int, untraced_rate: float,
              traced_rate: float, n_max: int) -> dict:
    summary = spans.summarize(tracer.spans)
    notes = {}
    for name, *_, note in tracer.spans:
        if note is not None:
            notes.setdefault(name, []).append(note)

    def calls(name):
        return summary.get(name, (0, 0.0))[0] / traced_ops

    def self_s(name):
        return summary.get(name, (0, 0.0))[1] / traced_ops

    def wall_s(name):
        return sum(s[2] - s[1] for s in tracer.spans
                   if s[0] == name) / traced_ops

    def ratio(num, den):
        return num / den if den else 0.0

    newton = notes.get("solver.newton", [])
    sample = notes.get("solver.sample", [])
    accepted, trials = spans.newton_step_counts(tracer.spans)
    return {
        "gluing.holonomies.calls": calls("gluing.holonomies"),
        "gluing.holonomies.self_s": self_s("gluing.holonomies"),
        "gluing.jacobian.calls": calls("gluing.jacobian"),
        "gluing.jacobian.self_s": self_s("gluing.jacobian"),
        "gluing.residual.calls": calls("gluing.residual"),
        "gluing.exponent_matrix.calls": calls("gluing.exponent_matrix"),
        "gluing.exponent_matrix.self_s": self_s("gluing.exponent_matrix"),
        "triangulation.edge_classes.calls": calls("triangulation.edge_classes"),
        "triangulation.edge_classes.self_s": self_s("triangulation.edge_classes"),
        "solver.newton.calls": calls("solver.newton"),
        "solver.newton.self_s": self_s("solver.newton"),
        "solver.iterations": sum(n[0] for n in newton) / traced_ops,
        "solver.step_accept_ratio": ratio(accepted, trials),
        "solver.converged_ratio": ratio(sum(n[1] for n in newton), len(newton)),
        "solver.sweep.self_s": self_s("solver.sweep"),
        "solver.sample.self_s": self_s("solver.sample"),
        "solver.sample.kept_ratio": ratio(sum(k for k, _ in sample),
                                          sum(k + d for k, d in sample)),
        "solver.certificate.self_s": self_s("solver.certificate"),
        "solver.cover_report.self_s": self_s("solver.cover_report"),
        "develop.spanning_tree.self_s": self_s("develop.spanning_tree"),
        "develop.edge_matrix.calls": calls("develop.edge_matrix"),
        "develop.edge_matrix.self_s": self_s("develop.edge_matrix"),
        "develop.face_steps": calls("develop.face_step"),
        "develop.verified_n_max": n_max,
        "geometry.volume.self_s": self_s("geometry.volume"),
        "geometry.cone_angles.self_s": self_s("geometry.cone_angles"),
        "report.build.self_s": self_s("report.build"),
        "report.verify.self_s": self_s("report.verify"),
        "report.json_bytes": wl.json_bytes / traced_ops,
        "fileio.parse.calls": calls("fileio.parse"),
        "fileio.parse.self_s": self_s("fileio.parse"),
        "fileio.format.self_s": self_s("fileio.format"),
        "cli.import_s": getattr(wl, "import_s", 0.0) / traced_ops,
        "cli.certify_s": wall_s("cli.certify"),
        "cli.verify_s": wall_s("cli.verify"),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ratio": ratio(untraced_rate, traced_rate),
    }


def blas_info() -> str:
    """numpy and BLAS versions and the BLAS thread count in this process."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "?"), blas.get("version", "?")
    except (KeyError, TypeError, ValueError):
        name, version = "?", "?"
    threads = "?"
    libdir = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("*openblas*.so*"))
    if libs:
        # the copy numpy loaded; dlopen of the same file returns it
        dll = ctypes.CDLL(str(libs[0]))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return (f"numpy {numpy.__version__}, BLAS {name} {version}, "
            f"BLAS threads {threads}")


def metrics_json(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "idealglue" / "__init__.py").is_file():
        print(f"error: no idealglue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import idealglue
    if pathlib.Path(idealglue.__file__).resolve().parent != SRC / "idealglue":
        print(f"error: imported idealglue from {idealglue.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, develop_verified_n_max

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    # this process and its children on one CPU, so that the speed reading
    # and the op it scales run on the same one
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start_speed = reference.Speed(
        reference.START_S, lambda: reference.start_seconds(env, ROOT), 1)
    kernel_speed = reference.Speed(reference.KERNEL_S,
                                   reference.kernel_seconds, 5)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    clock = Clock(env, workdir, start_speed if wl.starts_processes
                  else kernel_speed)

    setup_s = measure_setup(wl, clock, start_speed)
    print(f"env: python {platform.python_version()}, {blas_info()}, "
          f"nproc {os.cpu_count()}, pinned to CPU {cpu}")

    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = measure(wl, clock, args.seconds, (None, tracer))
        passes = untraced + traced
        values = per_layer(tracer, wl, len(outcomes(traced)),
                           median_over_passes(untraced, "ops_per_s"),
                           median_over_passes(traced, "ops_per_s"),
                           develop_verified_n_max())
        units = PER_LAYER
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans: {len(tracer.spans)} written to "
              f"{spans_file.relative_to(ROOT)}")
        if tracer.missing:
            print("missing functions (reported as 0): "
                  + ", ".join(tracer.missing))
    else:
        passes, = measure(wl, clock, args.seconds)
        values = end_to_end(passes, setup_s,
                            resource.getrusage(wl.rusage).ru_maxrss / 1024.0)
        units = END_TO_END
        count = len(passes[0])
        rank = tail_rank(count)
        print(f"op_s.tail: p{100.0 * rank / count:.1f} of {count} ops per "
              f"pass ({count - rank} beyond); medians over {len(passes)} "
              f"pass(es)")
        factors = [op[2] for p in passes for op in p]
        print(f"wall time: ops_per_s "
              f"{median_over_passes(passes, 'ops_per_s', 1):.4g}, op_s.p50 "
              f"{median_over_passes(passes, 'op_s.p50', 1):.4g} s, op_s.tail "
              f"{median_over_passes(passes, 'op_s.tail', 1):.4g} s; speed "
              f"factor median {statistics.median(factors):.3f} "
              f"(min {min(factors):.3f}, max {max(factors):.3f})")

    results = outcomes(passes)
    failed = [o for o in results if o.status != "ok"]
    for detail in sorted({o.detail for o in failed}):
        count = sum(o.detail == detail for o in failed)
        print(f"failed x{count}: {detail}")
    print(json.dumps({
        "correct": not any(o.status == "wrong" for o in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics_json(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
