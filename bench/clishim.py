"""Run one `sdm` or `gram` invocation with spans, for the traced cli-batch run.

    python3 -X importtime bench/clishim.py SPAN_FILE sdm|gram ARGS...

Behaves like the installed console script (same stdout, stderr and exit
code), and additionally writes to SPAN_FILE, as JSON, the spans recorded
while it ran: `cli.import` around `import diagram_spectra.cli`, `cli.main`
around `sdm_main`/`gram_main`, and one span per traced library call inside.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    span_file, entry, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import diagram_spectra.cli as cli
    main_fn = {"sdm": cli.sdm_main, "gram": cli.gram_main}[entry]
    with tracer.patched():
        with tracer.span("cli.main"):
            code = main_fn(argv)
    sys.stdout.flush()
    with open(span_file, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
