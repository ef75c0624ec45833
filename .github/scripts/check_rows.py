"""Row checks of a quench-entropy CSV on standard input, shared by the CI steps.

    python -m quench_entropy evolve ... \
      | python .github/scripts/check_rows.py NAME ROWS [--dense] [--gapped | --critical]

The header must end with the six evolve columns (a sweep adds param_value in
front), every row must have one field per column, and there must be ROWS
rows. Then, in every row:

  --dense     exact_entropy, neg_log_purity and det_bound are finite,
              exact_entropy >= neg_log_purity - 1e-8 and
              neg_log_purity >= det_bound - 1e-8;
  --gapped    szego_sum and bk_bound are finite and bk_bound <= szego_sum + 1e-9;
  --critical  szego_sum is finite and positive and bk_bound is nan.

The first failed check exits with a message that starts with NAME.
"""

import argparse
import csv
import io
import math
import sys

COLUMNS = ["t", "exact_entropy", "neg_log_purity", "det_bound", "szego_sum", "bk_bound"]
CHAIN_TOL = 1e-8
BK_CHAIN_TOL = 1e-9


def check(name: str, text: str, rows: int, dense: bool, gapped: bool, critical: bool) -> None:
    def fail(message: str):
        sys.exit(f"{name}: {message}")

    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0][-len(COLUMNS):] != COLUMNS:
        fail("the header does not end with " + ",".join(COLUMNS))
    header, body = table[0], table[1:]
    if len(body) != rows or any(len(r) != len(header) for r in body):
        fail(f"expected {rows} rows of {len(header)} columns")
    for row in body:
        r = dict(zip(header, row))
        exact, nlp, det, szego, bk = (float(r[c]) for c in COLUMNS[1:])
        at = " at " + ", ".join(f"{c}={r[c]}" for c in ("param_value", "t") if c in r)
        if dense:
            if not all(math.isfinite(v) for v in (exact, nlp, det)):
                fail("a dense column is not finite" + at)
            if exact < nlp - CHAIN_TOL or nlp < det - CHAIN_TOL:
                fail("bound chain violated" + at)
        if gapped:
            if not (math.isfinite(szego) and math.isfinite(bk)):
                fail("a Fourier column is not finite" + at)
            if bk > szego + BK_CHAIN_TOL:
                fail("bk_bound exceeds szego_sum" + at)
        if critical:
            if not (math.isfinite(szego) and szego > 0.0):
                fail("szego_sum not finite and positive" + at)
            if not math.isnan(bk):
                fail("bk_bound is not nan" + at)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name")
    parser.add_argument("rows", type=int)
    parser.add_argument("--dense", action="store_true")
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--gapped", action="store_true")
    kind.add_argument("--critical", action="store_true")
    args = parser.parse_args()
    check(args.name, sys.stdin.read(), args.rows, args.dense, args.gapped, args.critical)


if __name__ == "__main__":
    main()
