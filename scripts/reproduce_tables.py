#!/usr/bin/env python3
"""Regenerate the published verdict tables from the bundled dataset.

Equivalent to `unknotone report --paper-tables`; run with --json for the
machine-readable form.
"""

import sys

from unknotone.cli import main

if __name__ == "__main__":
    args = ["report", "--paper-tables"] + sys.argv[1:]
    sys.exit(main(args))
