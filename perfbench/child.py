"""One repetition of a workload, in a fresh process: ``python3 child.py SPEC.json``.

Puts the checkout's ``src`` first on the import path, installs the span
wrappers (only the ``trainer.train`` boundary unless the spec asks for a
traced run), calls ``rankprune.cli.main`` once per command with stdout sent
to a file, and writes what only this process can see to ``spec["result"]``:
exit codes, the rusage of the pool workers it reaped and the BLAS thread
variables it ran with.
"""

import contextlib
import json
import os
import resource
import sys


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import spans

    tracer = spans.Tracer(spec["trace_dir"])
    tracer.install(traced=spec["traced"])
    try:
        from rankprune.cli import main as cli

        codes = []
        with open(spec["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            for argv in spec["commands"]:
                codes.append(cli(argv))
                if codes[-1] != 0:
                    break
        tracer.flush()
    finally:
        tracer.uninstall()
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "exit_codes": codes,
        "child_cpu_s": workers.ru_utime + workers.ru_stime,
        "child_invol_csw": workers.ru_nivcsw,
        "blas_env": {k: os.environ.get(k) for k in spec["blas_vars"]},
    }
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
