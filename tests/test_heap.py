import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# In a fresh interpreter: map and free one 1 MiB block, so glibc's default
# malloc raises its mmap threshold to 1 MiB and its trim threshold to 2 MiB,
# then hold four 1 MiB temporaries at a time, as one batched step does.
# Default settings trim the heap after every round and fault all 4 MiB in
# again (about 1,000 minor faults a round); importing drsort keeps them.
_CHILD = """\
import resource
import numpy as np
import drsort

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

np.ones(1 << 17)
for _ in range(3):
    blocks = [np.ones(1 << 17) for _ in range(4)]
    del blocks
before = faults()
for _ in range(20):
    blocks = [np.ones(1 << 17) for _ in range(4)]
    del blocks
print(faults() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc settings")
def test_batched_temporaries_reuse_heap_pages():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert int(proc.stdout) < 200
