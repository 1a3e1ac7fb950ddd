"""Run the idealglue command line in this process with its spans recorded;
the benchmark's traced `cli_roundtrip` runs start this in place of
`python -m idealglue.cli`:

    python3 bench/cli_child.py SPANS_JSON <idealglue arguments>

Writes {"import_s", "spans", "missing"} to SPANS_JSON and exits with the
command's exit code.
"""
import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import idealglue.cli
    import_s = time.perf_counter() - start

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0, "cli.main")
    try:
        return idealglue.cli.main(argv)
    finally:
        tracer.end_op()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
