"""Fresh-process probes for run.py.

    python3 bench/child.py import          seconds to import echcap.cli
    python3 bench/child.py count ARGV_JSON  CapacityValue call counts of one
                                            CLI call, as JSON

Only os, sys and time are imported before the timed import, as in a user's
fresh `echcap` process.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import echcap.cli
    seconds = time.perf_counter() - start
    if sys.argv[1] == "import":
        print(repr(seconds))
        return 0

    import io
    import json
    from contextlib import redirect_stderr, redirect_stdout

    from tracer import Tracer

    argv = json.loads(sys.argv[2])
    with Tracer(spans=False) as tracer, redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        echcap.cli.main(argv)
    print(json.dumps(tracer.value_counts()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
