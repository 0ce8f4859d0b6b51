"""One benchmark iteration of swiptsim in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json holds ``t_spawn`` (the parent's ``time.monotonic()`` just before
it started this process), ``src`` (directory holding the ``swiptsim``
package), ``config`` (JSON config path), ``seed``, ``argv`` (the
``swiptsim`` command line), ``trace`` (bool), ``spans`` (where a traced run
writes its spans) and ``result`` (where this process writes its timings).

Set-up is interpreter start, ``import swiptsim.cli`` and config resolution
(which loads the packaged rectenna curve); wall time is the ``cli.main``
call, which ends when the output files are written.  Exit code 0 means the
CLI returned 0 and the result file was written, 4 that the package cannot
be imported.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    t0 = time.monotonic()
    try:
        from swiptsim import cli
    except ImportError as exc:
        print(f"cannot import swiptsim.cli: {exc}", file=sys.stderr)
        return 4
    import_s = time.monotonic() - t0
    cli.build_scenario(cli.load_config(spec["config"]), spec["seed"], None)
    setup_s = time.monotonic() - spec["t_spawn"]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, summarize

        tracer = Tracer()
        missing = tracer.install()

    t0 = time.perf_counter()
    code = cli.main(spec["argv"])
    wall_s = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["layers"] = summarize(tracer.spans)
        result["missing_bindings"] = missing
        result["attr_errors"] = tracer.attr_errors
        Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
