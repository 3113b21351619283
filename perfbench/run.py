#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source tree.

    python3 perfbench/run.py --workload dsm-paper --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (the first run compiles the whole
library), then runs it with the given arguments plus the source revision.
The benchmark's last line of standard output is its result object.
Extra modes: --write-pins records the pinned outcomes, --self-test checks
that a drifted outcome counts as a failure.
"""

import hashlib
import os
import shutil
import subprocess
import sys


def source_rev():
    """The git commit when there is one, else a digest of the library sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of the source tree (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    bench = subprocess.run([exe, *sys.argv[1:], "--rev", source_rev()])
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
