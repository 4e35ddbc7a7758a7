"""Run the matchplay CLI with the benchmark's span wrappers installed.

Usage: python bench/cli_shim.py <matchplay arguments>

The CLI's stdout and exit code are unchanged. The spans go to stderr as the
last line, prefixed with ``tracer.SPANS_MARK``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchplay import cli  # noqa: E402
from tracer import SPANS_MARK, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stderr.write(SPANS_MARK + json.dumps([list(s) for s in tracer.spans]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
