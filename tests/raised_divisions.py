"""Count the combined divisions of `qcore._divide_out`, and those that raise.

The reducer counts each Phi_d by evaluation at q = 2^8 and proves the
counts by one combined exact division.  When that division raises, it
counts every candidate again by exact division alone, one power at a
time, which costs several times more on a long numerator.  None raises
at 2^8 on the grids CI runs this script on; at 2^6, 21 raised at
`verify all --n-max 16`.

This script runs `qgen` with the given arguments in a fresh interpreter
(the lru_caches of a warm process would skip work), sends the report to
/dev/null, and prints the number of combined divisions and the number
that raised.  It exits 1 if any raised, or with qgen's own nonzero code.

    PYTHONPATH=src python tests/raised_divisions.py verify all --n-max 16
"""

import os
import sys
from contextlib import redirect_stdout

from qgen import cli, qcore


def main(argv: list[str]) -> int:
    reduce, divide = qcore._divide_out, qcore._times_cyclotomic
    combined = raised = 0
    pending = False  # inside _divide_out, before its first division

    def counted_reduce(num, den, cands):
        nonlocal pending
        pending = True
        try:
            return reduce(num, den, cands)
        finally:
            pending = False

    def counted_divide(a, mults):
        nonlocal combined, raised, pending
        first, pending = pending, False
        combined += first
        try:
            return divide(a, mults)
        except ArithmeticError:
            raised += first
            raise

    qcore._divide_out, qcore._times_cyclotomic = counted_reduce, counted_divide
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        code = cli.run(argv)
    print(combined, raised)
    return code or int(raised > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
