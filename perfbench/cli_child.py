"""Run the permdyn command line with every layer traced.

    python3 perfbench/cli_child.py SUMMARY.jsonl SPANS.npz ARGS...

Runs `permdyn ARGS...` in this interpreter exactly as `python -m permdyn.cli`
would, appends one JSON line of span statistics to SUMMARY.jsonl, writes the
spans to SPANS.npz and exits with the command's exit code.
"""

import json
import sys

from tracer import Tracer

import permdyn.cli


def main():
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer().install()
    try:
        code = permdyn.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.save(spans_path)
    with open(summary_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
