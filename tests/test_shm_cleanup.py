"""A command leaves ``/dev/shm`` as it found it.

The package shares no memory across processes: pool workers rebuild
what they need, and the process pool's semaphores are unlinked by the
time the command exits.  A cold micro ``campaign`` through ``python -m
repro`` runs the pool at ``--jobs 1`` (the entry point pins BLAS, so the
TER batch fans out over one worker per CPU) and at ``--jobs 2`` (the
injection shards too); afterwards no ``/dev/shm`` entry it created, of
any name, may remain.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.common import SCALES, get_bundle, save_model_state

SHM = Path("/dev/shm")
SRC = Path(__file__).resolve().parents[1] / "src"
#: Left to the entry point, which pins each to one thread.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_no_module_shares_memory():
    """No source maps shared memory or imports the tracer's placeholder."""
    pattern = re.compile(r"shared_memory|SharedMemory|import arena|\.arena\b")
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "arena.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


@pytest.mark.concurrency
@pytest.mark.skipif(not SHM.is_dir(), reason="no /dev/shm on this host")
class TestCliExit:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_campaign_leaves_dev_shm_as_found(self, tmp_path, jobs):
        micro = SCALES["micro"]
        cache = tmp_path / "cache"
        cache.mkdir()
        # Seed the trained snapshot so the run does not retrain.
        save_model_state(
            get_bundle("vgg16_cifar10", micro).model,
            cache / f"vgg16_cifar10-micro-w{micro.width}-n{micro.n_train}"
            f"-e{micro.epochs}-s0.npz",
        )
        env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k not in BLAS_THREADS
        }
        env.update(PYTHONPATH=str(SRC), REPRO_CACHE=str(cache))
        before = set(os.listdir(SHM))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--recipe", "vgg16_cifar10", "--scale", "micro", "--jobs", jobs,
             "--max-trials", "2", "--shard-trials", "2", "--max-shards", "4",
             "--artifacts", str(tmp_path / "artifacts")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        left = sorted(set(os.listdir(SHM)) - before)
        assert proc.returncode == 0, proc.stderr
        # The control: the run simulated, so it had work to fan out.
        assert " 0 simulated" not in proc.stdout, proc.stdout
        assert left == []
