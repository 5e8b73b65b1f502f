"""Run the latentseal CLI in this process with spans recorded.

    python3 perfbench/traced_cli.py SPANS_OUT OP_ID <latentseal arguments>

Used by the traced run of cli-cold; spans are written to SPANS_OUT.
"""

import sys

import spans


def main() -> int:
    out, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from latentseal import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = op
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
