"""``python -m noetherkit.cli`` with the layer tracer installed.

Usage: traced_cli.py TRACE_OUT ARGS...  Runs the CLI with ARGS, exits with
its code and writes the import time and layer counters to TRACE_OUT.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import noetherkit.cli as cli

    import_s = time.perf_counter() - start
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    Path(out).write_text(json.dumps({"import_s": import_s, "stats": tracer.snapshot()}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
