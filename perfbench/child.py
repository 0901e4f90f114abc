"""One CLI command in a fresh interpreter, with stdout hashed, not kept.

Usage: child.py RESULT_FD MODE -- CLI_ARGS...

MODE is `sink` (hash stdout only), `tee` (hash it and also pass it on to
the real stdout, for the output checker) or `trace` (hash it and trace the
simplexwidth modules). Runs `simplexwidth.cli.main(CLI_ARGS)` and writes one
JSON object to the file descriptor RESULT_FD: the digest, byte and line
counts of stdout, the peak resident set size, and with `trace` the tracer
summary. Exits with the command's exit code.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import traceback


class HashSink(io.RawIOBase):
    """Writable raw stream that keeps a SHA-256 and counts, not bytes."""

    def __init__(self, forward: io.BufferedIOBase | None = None) -> None:
        super().__init__()
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.forward = forward

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        data = bytes(data)
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        if self.forward is not None:
            self.forward.write(data)
        return len(data)


def main() -> int:
    result_fd, mode, separator, *cli_args = sys.argv[1:]
    if separator != "--" or mode not in ("sink", "tee", "trace"):
        print(__doc__, file=sys.stderr)
        return 2

    import simplexwidth.cli

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    real_stdout = sys.stdout.buffer
    sink = HashSink(real_stdout if mode == "tee" else None)
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    try:
        code = simplexwidth.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # The command crashed: report it as exit code 1 with its traceback.
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    real_stdout.flush()

    result = {
        "exit": code or 0,
        "digest": sink.sha.hexdigest(),
        "bytes": sink.bytes,
        "lines": sink.lines,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": simplexwidth.cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with os.fdopen(int(result_fd), "w") as out:
        json.dump(result, out)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
