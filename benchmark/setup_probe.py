"""Set-up time of a fresh process: import asymspec.cli, then run one warm-up op.

Usage: setup_probe.py SPAWN_TIME SRC_DIR ARGV_JSON

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so interpreter start-up is included.  Prints one JSON object with
the seconds until the warm-up op returned and its exit code.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    spawned, src, argv = float(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    from asymspec import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps({"ready_s": time.time() - spawned, "exit": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
