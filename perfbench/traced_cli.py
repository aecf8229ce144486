"""Run one discmax CLI invocation with span recording.

Usage: python3 perfbench/traced_cli.py <spans.csv.gz> <discmax arguments...>
(with src/ on PYTHONPATH).  The spans are written when the command ends.
"""

import sys

from spans import Tracer

from discmax import cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
