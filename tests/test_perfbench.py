"""The benchmark's self-test, run against the current source.

The benchmark's tracer wraps every public function of the homsum modules by
name, and `DistributionSpec.sample`, and reads the arguments and results of
functions such as `read_kernel` and `contract`, so a source change that
breaks the tracer or a benchmark check fails here.  It runs in a
subprocess because the self-test pins BLAS threads at import and patches
homsum's modules while tracing.
"""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "selftest.py")


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, SELFTEST], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("selftest: ok")
