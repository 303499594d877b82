"""Run ``repro.cli`` with the benchmark's span wrappers installed.

Usage: ``python traced_cli.py OUT.json <repro.cli arguments...>``

Times ``import repro.cli``, counts the modules it loaded, installs the
wrappers from ``tracer.py``, runs the command and writes the spans to
``OUT.json`` when it returns (for ``serve``, after the SIGTERM drain).  The
exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Recorder


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    loaded = {
        "import_s": import_s,
        "modules": len(sys.modules),
        "scipy": sum(1 for name in sys.modules if name.split(".")[0] == "scipy"),
    }
    recorder = Recorder().install()
    code = 1
    try:
        if argv and argv[0] == "serve":
            # The daemon's roots are its request handlers and scheduler steps.
            code = repro.cli.main(argv)
        else:
            with recorder.span("op", op=0):
                code = repro.cli.main(argv)
    finally:
        recorder.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({**loaded, "spans": recorder.to_json()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
