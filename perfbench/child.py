"""Traced su6lab process: ``python child.py SPANS_FILE OP_ID ARGV...``.

Times ``import su6lab.cli`` (which imports the whole package), installs the
span wrappers, calls ``su6lab.cli.main(ARGV)`` and writes the import time
and the spans to SPANS_FILE.  The exit code is the command's.
"""
import json
import sys
import time

from spans import Tracer


def main() -> int:
    spans_file, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t = time.perf_counter()
    import su6lab.cli
    import_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    code = su6lab.cli.main(argv)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
