"""Run one ratdyn command-line invocation under the benchmark's tracer.

    python traced_cli.py TRACE_OUT <ratdyn cli arguments...>

Same behaviour and exit code as ``python -m ratdyn.cli``; the trace of the
process is written to TRACE_OUT.
"""

import sys

import ratdyn.cli
import tracing


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return ratdyn.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
