"""Child process of the benchmark, for the runs the plain CLI cannot do.

    python perfbench/child.py [--trace-out PATH] cli ARGS...
    python perfbench/child.py [--trace-out PATH] quotients SEED

``cli`` runs ``snspectra.cli.main(ARGS)``; ``quotients`` runs
``verify.verify_quotients`` over the Lemma 53/54 grid in the seed's order
and prints the outcomes as ``verify --format json`` would.  With
``--trace-out`` the tracer is installed first and its layer self times are
written to PATH when the call returns.
"""

from __future__ import annotations

import sys


def _quotients(seed: int) -> int:
    from snspectra import verify

    import workloads

    outcomes = []
    for n, k, r in workloads.quotient_order(seed):
        outcomes.extend(verify.verify_quotients(n, k, r))
    print(verify.to_json(outcomes))
    return verify.exit_code(outcomes)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("cli", "quotients"):
        raise SystemExit(__doc__)
    kind, rest = argv[0], argv[1:]

    import snspectra.cli  # imports every module whose bindings the tracer wraps

    def run() -> int:
        return snspectra.cli.main(rest) if kind == "cli" else _quotients(int(rest[0]))

    if trace_out is None:
        return run()

    import tracer

    spans = tracer.Tracer()
    missing = tracer.install(spans)
    try:
        return run()
    finally:
        tracer.write(spans, missing, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
