"""Child processes of the benchmark, each in a fresh interpreter.

    python3 child.py setup <workload>
        time the workload's set-up (imports and model loading) and print
        its normalized and its raw CPU seconds;
    python3 child.py trace <counts.json> <algebroids arguments...>
        run one ``algebroids`` command with every layer traced, write the
        counts, import and main times to ``counts.json``, and exit with the
        command's code.

Both expect the compiled package on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def setup(workload):
    start = time.process_time()
    if workload == "suite-all":
        import algebroids.suites  # noqa: F401
        from algebroids.model import load_model

        load_model(FIXTURES / "standard.json")
        load_model(FIXTURES / "so3.json")
    elif workload == "cli-oneshot":
        import algebroids.cli  # noqa: F401
        from algebroids.model import builtin_model

        builtin_model()
    elif workload == "model-stream":
        import algebroids.calculus  # noqa: F401
        import algebroids.model  # noqa: F401
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    cpu = time.process_time() - start
    from hostprobe import normalize, probe

    print(repr(normalize(cpu, [probe(), probe()])), repr(cpu))


def trace(counts_path, argv):
    start = time.perf_counter()
    from algebroids import cli
    import_ms = (time.perf_counter() - start) * 1000

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_ms = (time.perf_counter() - start) * 1000
        tracer.uninstall()
        Path(counts_path).write_text(json.dumps({
            "import_ms": import_ms, "main_ms": main_ms,
            "counts": tracer.counts()}), encoding="utf-8")
    return code


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif len(sys.argv) >= 3 and sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(__doc__)
