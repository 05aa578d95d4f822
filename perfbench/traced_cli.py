"""One rickerwaves CLI call with spans recorded, for the traced cli_session run.

Usage: python3 perfbench/traced_cli.py SPANS_JSON SUBCOMMAND [CLI ARGS...]

Behaves as ``python -m rickerwaves SUBCOMMAND ...`` (same stdout and exit
code) and writes the call's spans, including the import of the package as
``cli.import``, to SPANS_JSON.
"""

import json
import sys
import time

start = time.perf_counter()
from rickerwaves import cli  # noqa: E402

imported = time.perf_counter()

from spans import Tracer, rickerwaves_modules  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.spans.append(["cli.import", start, imported, -1, 0, None])
    with tracer.installed(rickerwaves_modules()):
        code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
