"""Run one portsens command as the console script would, with probes.

    python3 perfbench/child.py --mark FILE [--trace FILE --invocation ID]
                               -- ARGS...

ARGS are the ``portsens`` arguments.  The script imports ``portsens.cli``
and returns ``main(ARGS)`` as its exit code, which is what the installed
``portsens`` entry point does.

``--mark`` writes the CLOCK_MONOTONIC time of the first call into ``paths``
(the first ``TimeGrid`` or ``PathEnsemble`` construction, which comes before
every other ``paths`` call in the benchmark's commands).  The hook removes
itself on that call, so an untraced invocation runs unwrapped code.
``--trace`` installs the span tracer of ``tracing.py`` and writes its
record as JSON at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _install_setup_mark(path: str) -> None:
    from portsens import paths

    classes = (paths.TimeGrid, paths.PathEnsemble)
    originals = [cls.__post_init__ for cls in classes]

    def first_call(self):
        now = time.monotonic()
        for cls, orig in zip(classes, originals):
            cls.__post_init__ = orig
        with open(path, "w") as fh:
            fh.write(repr(now))
        type(self).__post_init__(self)

    for cls in classes:
        cls.__post_init__ = first_call


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mark", required=True)
    ap.add_argument("--trace")
    ap.add_argument("--invocation", type=int, default=0)
    ap.add_argument("args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    import portsens.cli

    _install_setup_mark(opts.mark)
    if opts.trace is None:
        return portsens.cli.main(args)

    import tracing  # the script's own directory is on sys.path

    tracer = tracing.Tracer(opts.invocation)
    tracing.install(tracer)
    try:
        return portsens.cli.main(args)
    finally:
        with open(opts.trace, "w") as fh:
            json.dump(tracer.record(), fh)


if __name__ == "__main__":
    sys.exit(main())
