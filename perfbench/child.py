"""Run one fedprune CLI command in this process and record its spans.

    python3 perfbench/child.py OUT_JSON OP_SPAN TRACE -- FEDPRUNE_ARGS...

TRACE=0 wraps only the op span (one timestamp pair per op); TRACE=1 wraps
every target in tracer.TARGETS. The command's exit code, the spans, the
absent targets and the process's peak RSS go to OUT_JSON when it ends.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SRC, pin_blas  # noqa: E402

pin_blas()  # before anything imports numpy
sys.path.insert(0, str(SRC))

from tracer import TARGETS, Tracer  # noqa: E402


def main() -> int:
    out, op_span, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: child.py OUT_JSON OP_SPAN TRACE -- FEDPRUNE_ARGS...", file=sys.stderr)
        return 2
    import fedprune.cli

    if not Path(fedprune.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: fedprune imported from {fedprune.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    targets = TARGETS if trace == "1" else [t for t in TARGETS if t[0] == op_span]
    tracer = Tracer(op_span, targets)
    exit_code = None
    try:
        with tracer:
            try:
                exit_code = fedprune.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                exit_code = exc.code
    finally:
        record = {
            "exit_code": exit_code,
            "spans": tracer.spans,
            "absent": tracer.absent,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        Path(out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
