"""Run one eudoxos command with the tracer installed; write its snapshot.

Usage: python cli_traced.py SNAPSHOT_FILE COMMAND [ARGS...]
The command's output and exit code are those of ``python -m eudoxos.cli``.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import eudoxos.cli

    tracer = Tracer(span_cap=2_000)
    tracer.install()
    tracer.begin_op(0, "cli")
    try:
        code = eudoxos.cli.main(argv)
    except SystemExit as exc:  # usage errors leave through argparse
        code = exc.code
    finally:
        tracer.end_op()
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"snapshot": tracer.snapshot(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
