"""One benchmark child: a fresh interpreter that runs ``definetti sweep`` once.

    python3 bench/child.py RESULT_JSON MODE SWEEP_ARG...

MODE is ``full`` (time the sweep), ``setup`` (stop at the first entry into
``verify``, so only set-up is timed) or ``trace:SPANS_JSON`` (a full run with
every function in ``tracer.TRACED`` wrapped; spans go to SPANS_JSON).

The result JSON holds ``setup_s`` (child start, before ``import definetti``,
to the first entry into ``verify``), ``wall_s`` (the ``cli.main`` call),
``peak_rss_mb`` (this process's own ``ru_maxrss``) and the sweep's exit code.
The only hook in a ``full`` run is the shim that records the first entry into
``verify``. The result file is written only if the sweep returns, so a crash
leaves none.
"""

import time

CHILD_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True

import tracer  # noqa: E402


class _StopAtVerify(Exception):
    """Raised by the shim in ``setup`` mode once set-up is over."""


def main(argv) -> int:
    result_path, mode, sweep_args = argv[0], argv[1], argv[2:]
    traced = None
    if mode.startswith("trace:"):
        traced = tracer.Tracer(trace_id=os.urandom(16).hex())
        traced.install()
    tracer.import_package()
    from definetti import cli

    first_verify = []
    real_verify = tracer.find("certifier.verify")

    def verify_shim(*args, **kwargs):
        if not first_verify:
            first_verify.append(time.perf_counter())
            if mode == "setup":
                raise _StopAtVerify
        return real_verify(*args, **kwargs)

    if real_verify is not None:
        tracer.rebind(real_verify, verify_shim)
    start = time.perf_counter()
    try:
        code = cli.main(["sweep", *sweep_args])
    except _StopAtVerify:
        code = None
    wall = time.perf_counter() - start
    result = {
        "mode": mode.partition(":")[0],
        "exit_code": code,
        "setup_s": first_verify[0] - CHILD_START if first_verify else None,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced is not None:
        traced.dump(mode[len("trace:"):])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
