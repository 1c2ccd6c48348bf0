#!/usr/bin/env python3
"""Checks that docs/CLI.md holds exactly the text `gfdtool help` prints.

Usage: check_cli_doc.py GFDTOOL [CLI.md]

For each `## verb` section of the page (docs/CLI.md next to this
script's repo root by default), the fenced block that follows the
heading must equal the output of `GFDTOOL help verb` byte for byte.
Exits 0 and says how many verbs it checked; exits 1 with a diff on the
first mismatch, or when the page holds no verb section.
"""

import difflib
import os
import re
import subprocess
import sys

SECTION = re.compile(r"^## (\S+)\n\n```\n(.*?)^```$", re.M | re.S)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    gfdtool = argv[1]
    page = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "docs", "CLI.md")
    with open(page, encoding="utf-8") as f:
        sections = SECTION.findall(f.read())
    if not sections:
        print(f"{page}: no `## verb` section with a fenced block",
              file=sys.stderr)
        return 1
    for verb, documented in sections:
        printed = subprocess.run([gfdtool, "help", verb], check=False,
                                 capture_output=True, text=True)
        if printed.returncode != 0:
            print(f"`gfdtool help {verb}` exited {printed.returncode}: "
                  f"{printed.stderr.strip()}", file=sys.stderr)
            return 1
        if printed.stdout != documented:
            diff = difflib.unified_diff(
                documented.splitlines(keepends=True),
                printed.stdout.splitlines(keepends=True),
                f"{page} ## {verb}", f"gfdtool help {verb}")
            print(f"{verb}: the page and `gfdtool help {verb}` differ:",
                  file=sys.stderr)
            sys.stderr.writelines(diff)
            return 1
    print(f"ok: {len(sections)} verb(s) match `gfdtool help`")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
