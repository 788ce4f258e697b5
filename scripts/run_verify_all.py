#!/usr/bin/env python3
"""Run the full verification suite with the shipped default configuration.

Equivalent to `padic-hua verify all --seed 42`; reports land in ./reports.
Any arguments are passed on to `verify all`, and a --seed among them
overrides the default 42.
"""

import sys

from padic_hua.cli import main

if __name__ == "__main__":
    # argparse keeps the last --seed given, so the caller's wins.
    sys.exit(main(["verify", "all", "--seed", "42", *sys.argv[1:]]))
