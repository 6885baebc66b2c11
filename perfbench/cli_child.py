"""One tanhspec CLI command under the span recorder (traced cli_batch tasks).

    PYTHONPATH=src python3 -X importtime perfbench/cli_child.py SPANS.json ARGS...

Behaves like the console-script entry point and writes the spans of the
command to SPANS.json once it ends, whether it returns, exits or raises.
"""

import json
import sys

import tracing

spans_path, argv = sys.argv[1], sys.argv[2:]
import tanhspec.cli as cli  # noqa: E402  (timed by -X importtime)

rec = tracing.Recorder()
rec.install()
try:
    code = cli.main(argv)
finally:
    with open(spans_path, "w") as fh:
        json.dump(rec.dump(), fh)
sys.exit(code)
