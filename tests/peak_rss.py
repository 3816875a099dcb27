"""Run one `qgen` command in a fresh interpreter and check its peak memory.

The first argument is a bound in MB; the rest is the qgen argv.  The
child inherits this script's stdin, stdout and stderr, so its report
goes where this script's stdout goes (or to its --output).  The child's
peak resident set size, read from os.wait4 as perfbench reads it
(MB = 10^6 bytes), is printed on stderr.  The script exits 1 when the
peak passes the bound, or with qgen's own nonzero code.

    PYTHONPATH=src python tests/peak_rss.py 85 verify all --n-max 20 --format json --output r.json
"""

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound_mb, qgen_argv = float(argv[0]), argv[1:]
    proc = subprocess.Popen([sys.executable, "-m", "qgen.cli", *qgen_argv])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    print(f"qgen {' '.join(qgen_argv)}: peak {peak_mb:.1f} MB (bound {bound_mb:g} MB)",
          file=sys.stderr)
    return code or int(peak_mb > bound_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
