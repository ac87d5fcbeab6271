"""One fresh-interpreter measurement, started by run.py.

    python3 perfbench/child.py run <cli args...>
        times drivetherm.cli.main(<cli args>) in-process (run_s);
    python3 perfbench/child.py setup <config>
        times `import drivetherm.cli` plus load_run_config(<config>) (setup_s).

The last stdout line is a JSON object; the parent puts <checkout>/src on
PYTHONPATH and checks that drivetherm was imported from there.
"""

import json
import sys
import time


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        t0 = time.perf_counter()
        import drivetherm.cli
        drivetherm.cli.load_run_config(args[0])
        result = {"setup_s": time.perf_counter() - t0}
        rc = 0
    else:
        import drivetherm.cli
        t0 = time.perf_counter()
        rc = drivetherm.cli.main(args)
        result = {"run_s": time.perf_counter() - t0, "rc": rc}
    result["module"] = drivetherm.__file__
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
