"""Traced stand-in for ``python -m maxblaschke.cli``.

Usage: ``python bench/cli_child.py SPANS.json <cli arguments>``

Times ``import maxblaschke.cli`` itself, then runs ``main`` with the layer
tracer installed and writes the spans, the import and main times and the exit
code to SPANS.json.  Standard output and the exit code are the CLI's own.
"""

import time

_t0 = time.perf_counter()
import maxblaschke.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 1
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "main_s": main_s, "exit": code,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
