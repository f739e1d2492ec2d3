#!/usr/bin/env python3
"""Build the perfbench driver from this checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The driver and the nscc library sources it
links are built in Release mode under $CARGO_TARGET_DIR/perfbench when that
variable is set, else under perfbench/build; an up-to-date build costs about
a second.  Build output goes to stderr, so the driver's JSON result is the
last line of stdout.  Traced runs (--trace 1) write a Chrome trace to
perfbench/out/.
"""
import os
import shutil
import subprocess
import sys

# The driver itself ends well within this; the limit only guards a hang.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    corpus = os.path.join(root, "tests", "corpus")
    if not os.path.isfile(os.path.join(root, "src", "sa", "compile.hpp")) or not os.path.isdir(corpus):
        sys.exit("perfbench: no nscc sources here (src/ and tests/corpus/ are missing)")

    target = os.environ.get("CARGO_TARGET_DIR")
    build = os.path.join(root, target, "perfbench") if target else os.path.join(here, "build")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "-j", "4"], stdout=sys.stderr, check=True)

    cmd = [os.path.join(build, "perfbench")] + sys.argv[1:] + [
        "--corpus", corpus, "--out", os.path.join(here, "out")]
    proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    sys.exit(proc.returncode if proc.returncode >= 0 else 1)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: %s" % e)
