"""Run ``specgrow`` CLI arguments under the tracer, in a process of its own.

Usage: python traced_cli.py SPANS_JSON ARGS...

Times ``import specgrow.cli`` first, then calls ``specgrow.cli.main(ARGS)``
inside one traced unit and writes the import time and the spans to
SPANS_JSON.  Exits with the CLI's exit status.
"""

import json
import sys
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    import specgrow.cli
    import_s = perf_counter() - t0

    from tracer import Tracer, installed

    tracer = Tracer()
    with installed(tracer.wrap), tracer.unit("cli", "process"):
        code = specgrow.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)
