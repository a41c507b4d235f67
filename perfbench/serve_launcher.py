"""Start ``repro.cli serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py SPANS_FILE serve --port 0 ...

Everything after ``SPANS_FILE`` goes to the CLI unchanged.  The spans
of the server process are written to ``SPANS_FILE`` once the server
has drained; the exit code is the CLI's.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import tracing
    from repro import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
