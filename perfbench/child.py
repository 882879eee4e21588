"""One fresh-interpreter invocation of the errlens CLI, timed from inside.

    python3 child.py SRC_DIR RESULT_JSON MODE [CLI ARGV...]

MODE is ``import`` (time ``import errlens.cli`` only), ``run`` (also call
``errlens.cli.main(argv)``) or ``trace`` (the same, with spans recorded around
the public callables).  The result is written as JSON to RESULT_JSON.  Only
``sys`` and ``time`` are imported before the timed import, so every module
errlens needs is paid for in ``setup_s``.
"""

import sys
import time


def main() -> int:
    src, result_path, mode, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import errlens.cli
    setup_s = time.perf_counter() - start

    import json
    import resource

    out = {"setup_s": setup_s, "module": errlens.cli.__file__}
    if mode != "import":
        recorder = None
        if mode == "trace":
            from spans import Recorder
            recorder = Recorder()
            recorder.install()
        start = time.perf_counter()
        try:
            out["exit_code"] = errlens.cli.main(argv)
        except Exception:  # a traceback is a failed invocation, not a failed benchmark
            import traceback
            out["exit_code"] = "traceback: " + traceback.format_exc(limit=-3)
        out["wall_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux.
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            out["spans"] = recorder.spans
            out["absent"] = recorder.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
