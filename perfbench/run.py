#!/usr/bin/env python3
"""End-to-end benchmark of the READ reproduction's command line.

Run from the root of the repository::

    python3 perfbench/run.py --workload all-cold --seed 1 --seconds 10 --trace 0

One invocation runs one workload (see ``WORKLOADS``) the way a user does:
``python -m repro`` child processes, one at a time, each in a session of
its own, with a private result cache and arena registry under
``.perfbench/``.  It builds the workload's start state (timed as
``setup_s``), then runs the command from a fresh copy of that state as
often as fits in ``--seconds`` (at least once), and checks every run:
exit code 0, outputs equal to the digests pinned in ``pins.json``, no
process left behind, and for the warm workload an engine summary that
simulated nothing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead, from one set-up and one command run under
``child.py --trace`` plus one untraced command run (for the tracing
overhead and the process facts).  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record (host facts, command lines, the children's
environment, every run) is written to ``.perfbench/records/``.

This process never imports ``repro``.  ``README.md`` describes the
workloads, the metrics and the end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zipfile
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
SHM = Path("/dev/shm")
SEGMENT_PREFIX = "repro-arena-"

#: Start no command once a run has used this much of its 180 s.
RUN_BUDGET_S = 150.0
#: How long a command's processes may outlive it before they are killed
#: and the run counts as failed (the arena's resource tracker lingers 1-3 s).
DRAIN_LIMIT_S = 10.0
#: /proc sampling period while counting a command's processes.
SAMPLE_S = 0.1
#: The host's cores run the same work up to 1.7x slower for minutes at a
#: time (their other tenants are busy).  host_reference() times a fixed
#: unit of work REF_UNITS times on each CPU, only between set-ups and
#: commands, and wall_ref_s and setup_s scale each step's wall clock to a
#: host on which that unit takes REF_UNIT_S.
REF_UNITS = 100
REF_UNIT_S = 2.0e-3
_REF_ARRAY = np.random.default_rng(0).standard_normal(32768)
PR_SET_CHILD_SUBREAPER = 36

INPUTS = (
    "the package's fixed seed-0 synthetic datasets: the CLI takes no seed, "
    "so --seed only labels the run"
)
PAPER_RECIPES = ("vgg16_cifar10", "resnet18_cifar10", "vgg16_cifar100", "resnet34_imagenet32")
#: Every choice the CLI would otherwise take from a default or a REPRO_* variable.
FLAGS = ("--scale", "micro", "--backend", "vector", "--injection-runtime", "batched")
#: Shown in the header; the record holds the children's whole environment.
SHOWN_ENV = ("PYTHONPATH", "REPRO_CACHE", "REPRO_ARENA_DIR", "TMPDIR",
             "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    argv: Tuple[str, ...]  # after `python -m repro`; --artifacts is added per run
    recipes: Tuple[str, ...]  # bundles of the start state
    #: The set-up copies the checkout's trained bundles instead of training
    #: them, then runs the command once to fill the result cache.
    warm: bool = False
    setups: int = 1  # set-ups per run; setup_s is their median


WORKLOADS = {
    # Its set-up starts from bundles trained once per checkout and program
    # version, so setup_s times the cold fill alone.  Training them in every
    # run too would add ~20 s to each of the regression check's 22 runs of
    # this workload, which its time limit cannot afford beside the two cold
    # workloads; those two train in every set-up, so setup_s still times
    # training.
    "all-warm": Workload(("all", *FLAGS, "--jobs", "1"), PAPER_RECIPES, warm=True),
    "all-cold": Workload(("all", *FLAGS, "--jobs", "1"), PAPER_RECIPES),
    "all-cold-j2": Workload(("all", *FLAGS, "--jobs", "2"), PAPER_RECIPES),
    # One small bundle: a run can afford three set-ups.
    "campaign-mixer": Workload(
        ("campaign", "--recipe", "mixer_cifar10", *FLAGS, "--jobs", "1"),
        ("mixer_cifar10",),
        setups=3,
    ),
}

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics: name -> (unit, source).  Times are self times
#: (inclusive time minus the traced calls made inside) unless noted.
LAYERS: Dict[str, Tuple[str, str]] = {
    "nn.fit_s": ("s", "Trainer.fit in the traced set-up, inclusive"),
    "nn.float_eval_s": ("s", "Trainer.evaluate"),
    "nn.calibrate_s": ("s", "calibrate of QuantizedNetwork and QuantizedTokenNetwork"),
    "nn.qeval_s": ("s", "QuantizedNetwork.evaluate"),
    "nn.fault_free_pass_s": ("s", "fault_free_pass of both quantized network classes"),
    "nn.trials_s": ("s", "QuantizedNetwork.evaluate_trials"),
    "nn.trials": ("count", "trials passed to QuantizedNetwork.evaluate_trials"),
    "nn.token_trials_s": ("s", "QuantizedTokenNetwork.evaluate_trials"),
    "nn.token_trials": ("count", "trials passed to QuantizedTokenNetwork.evaluate_trials"),
    "experiments.get_bundle_s": ("s", "get_bundle"),
    "experiments.get_bundle_calls": ("count", "get_bundle calls"),
    "experiments.record_s": ("s", "record_operand_streams"),
    "experiments.plan_s": ("s", "runner plan and plan_injections"),
    "experiments.render_s": ("s", "runner run and render"),
    "experiments.shards_run": ("count", "campaign manifest run.executed_shards"),
    "experiments.shards_cancelled": ("count", "campaign manifest run.cancelled_shards"),
    "experiments.trials_counted": ("count", "campaign manifest totals.counted_trials"),
    "engine.scheduler.self_s": ("s", "SimEngine.run_many and run_stream"),
    "engine.scheduler.submitted": ("count", "engine summary line: jobs"),
    "engine.scheduler.hits": ("count", "engine summary line: cache hits"),
    "engine.scheduler.simulated": ("count", "engine summary line: simulated"),
    "engine.scheduler.deduped": ("count", "engine summary line: deduplicated"),
    "engine.scheduler.cancelled": ("count", "engine summary line: cancelled"),
    "engine.cache.load_s": ("s", "ResultCache.load"),
    "engine.cache.loads": ("count", "ResultCache.load calls"),
    "engine.cache.load_misses": ("count", "ResultCache.load calls that found nothing"),
    "engine.cache.keys_loaded": ("count", "distinct keys passed to ResultCache.load"),
    "engine.cache.loads_per_key": ("ratio", "engine.cache.loads / engine.cache.keys_loaded"),
    "engine.cache.deserialize_s": ("s", "deserialize_result of SimJob, InjectionJob, InjectionShard"),
    "engine.cache.store_s": ("s", "ResultCache.store"),
    "engine.cache.stores": ("count", "ResultCache.store calls"),
    "engine.cache.bytes_stored": ("bytes", "size of the entries ResultCache.store wrote"),
    "engine.job.key_s": ("s", "key() of SimJob, NetworkJob, InjectionJob, InjectionShard"),
    "engine.job.keys": ("count", "key() calls"),
    "core.plan_s": ("s", "plan_layer"),
    "core.plans": ("count", "plan_layer calls"),
    "core.plan_memo_hits": ("count", "SimJob.build_plan calls that reached no plan_layer"),
    "engine.vector.s": ("s", "VectorBackend.run_network (run calls it)"),
    "engine.vector.jobs": ("count", "SimJobs passed to VectorBackend.run_network"),
    "engine.vector.macs": ("count", "rows x C_eff x K of those SimJobs"),
    "engine.vector.ns_per_mac": ("ns/MAC", "engine.vector.s / engine.vector.macs"),
    "hw.price_s": ("s", "hw.dta.histogram_expected_errors_many"),
    "faults.inject_s": ("s", "InjectionJob.execute_range"),
    "faults.flip_plan_s": ("s", "BitFlipInjector.flip_plan"),
    "faults.flip_plans": ("count", "BitFlipInjector.flip_plan calls"),
    "faults.trials_deduped": ("count", "engine summary line: trials deduped"),
    "faults.trials_pruned": ("count", "engine summary line: trials pruned"),
    "faults.dedup_ratio": ("ratio", "dedup events per trial: faults.trials_deduped / (nn.trials + nn.token_trials)"),
    "engine.arena.publish_s": ("s", "OperandArena.publish and attach"),
    "engine.arena.stores": ("count", "engine summary line: arena stores"),
    "engine.arena.hits": ("count", "engine summary line: arena hits"),
    "engine.arena.errors": ("count", "engine summary line: arena errors"),
    "engine.arena.bytes": ("bytes", "payload bytes of successful OperandArena.publish calls"),
    "process.import_s": ("s", "import repro.cli in the traced child"),
    "process.cpu_s": ("s", "user+sys CPU of the untraced command's process tree"),
    "process.children": ("count", "processes besides the untraced command seen in its session"),
    "process.drain_s": ("s", "how long the untraced command's last process outlived it"),
    "shm_left_mb": ("MB", "/dev/shm/repro-arena-* left after the untraced command"),
    "trace.unattributed_s": ("s", "traced wall minus import and the parent's self times"),
    "trace.overhead_s": ("s", "traced wall minus untraced wall"),
}

SUMMARY = re.compile(
    r"^engine\[[^\]]*\]: (?P<submitted>\d+) job\(s\): (?P<hits>\d+) cache hit\(s\), "
    r"(?P<deduped>\d+) deduplicated, (?P<simulated>\d+) simulated(?P<rest>.*)$",
    re.M,
)
SUMMARY_EXTRAS = {
    "cancelled": re.compile(r", (\d+) cancelled"),
    "trials_pruned": re.compile(r"; (\d+) trial\(s\) pruned"),
    "trials_deduped": re.compile(r"pruned, (\d+) deduped"),
    "arena_hits": re.compile(r"arena: (\d+) hit\(s\)"),
    "arena_stores": re.compile(r"(\d+) store\(s\)"),
    "arena_errors": re.compile(r"store\(s\), (\d+) error\(s\)"),
}
SECRET = re.compile(r"TOKEN|SECRET|PASSWORD|PASSWD|CREDENTIAL|AUTH|KEY", re.I)


class Refused(Exception):
    """Nothing can be measured here; the run exits without a result."""


class Interrupted(Exception):
    """A signal asked the benchmark to stop."""


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def _become_subreaper() -> bool:
    """Adopt orphaned descendants, so every one of them is reaped here."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _process_table() -> Dict[int, Tuple[str, int, int]]:
    """pid -> (state, parent pid, session id) of every process."""
    table = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            raw = Path(entry.path, "stat").read_bytes()
        except OSError:
            continue
        fields = raw[raw.rindex(b")") + 2 :].split()
        table[int(entry.name)] = (fields[0].decode(), int(fields[1]), int(fields[3]))
    return table


@dataclass
class Usage:
    cpu_s: float = 0.0
    maxrss_kb: int = 0

    def add(self, rusage) -> None:
        self.cpu_s += rusage.ru_utime + rusage.ru_stime
        self.maxrss_kb = max(self.maxrss_kb, rusage.ru_maxrss)


class Sessions:
    """Every session this run started, and the processes in them.

    This process is a child subreaper, so an orphaned descendant is
    re-parented here rather than to PID 1: ``members`` finds it among this
    process's descendants even if it left its session, and ``reap``
    collects it once it exits.
    """

    def __init__(self) -> None:
        self.sids: Set[int] = set()

    def start(self, argv: List[str], env: Dict[str, str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)
        self.sids.add(proc.pid)
        return proc

    def members(self) -> Dict[int, str]:
        """pid -> state of every process, zombies included, started by this run."""
        table = _process_table()
        children = defaultdict(list)
        for pid, (_, ppid, _) in table.items():
            children[ppid].append(pid)
        found = {pid: state for pid, (state, _, sid) in table.items() if sid in self.sids}
        stack = [os.getpid()]
        while stack:
            for pid in children.pop(stack.pop(), ()):
                found[pid] = table[pid][0]
                stack.append(pid)
        return found

    @staticmethod
    def reap(usage: Usage) -> None:
        """Reap every exited child of this process, adopted orphans included."""
        while True:
            try:
                pid, _, rusage = os.wait4(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            usage.add(rusage)

    def kill(self, usage: Usage) -> int:
        """SIGKILL every process this run started and reap; returns how many were killed."""
        killed: Set[int] = set()
        stop = time.monotonic() + 5.0
        while True:
            members = self.members()
            for pid, state in members.items():
                if state != "Z" and pid not in killed:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        killed.add(pid)
                    except ProcessLookupError:
                        pass
            self.reap(usage)
            if not members or time.monotonic() > stop:
                return len(killed)
            time.sleep(0.02)


def _wait_exit(pid: int, deadline: float, sample: Optional[Callable[[], None]]) -> bool:
    """Wait until ``pid`` exits, without reaping it; False at the deadline."""
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            step = min(remaining, SAMPLE_S) if sample else remaining
            if poller.poll(step * 1000):
                return True
            if sample:
                sample()
    finally:
        os.close(fd)


@dataclass
class Outcome:
    """One command: how it ended and what it cost."""

    argv: List[str]
    rc: Optional[int]  # None when it was killed at the run's time limit
    wall_s: float  # process start to exit
    cpu_s: float  # user+sys of the whole tree
    peak_rss_mb: float  # largest process of the tree
    drain_s: float  # how long its last process outlived it
    children: int  # other processes seen in its session (sampled runs only)
    problems: List[str] = field(default_factory=list)
    shm_left_mb: float = 0.0
    host_ref_s: Optional[float] = None  # host_reference() just before and after, averaged


def host_reference() -> float:
    """Seconds one fixed unit of interpreter and array work takes on this host.

    The median over REF_UNITS units on each allowed CPU in turn, averaged
    over the CPUs.  Called only while no process of this run is alive, so
    the program's own load cannot enter it.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            units = []
            for _ in range(REF_UNITS):
                began = time.perf_counter()
                total = 0
                for i in range(10_000):
                    total += i & 7
                for _ in range(4):
                    np.sort(np.cumsum(_REF_ARRAY))
                units.append(time.perf_counter() - began)
            per_cpu.append(statistics.median(units))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(per_cpu)


def run_command(sessions: Sessions, argv: List[str], env: Dict[str, str], log: Path,
                deadline: float, sample: bool = False) -> Outcome:
    """Run ``argv`` in a session of its own and wait until its processes are gone."""
    usage = Usage()
    seen: Set[int] = set()
    start = time.perf_counter()
    proc = sessions.start(argv, env, log)
    pid = proc.pid
    exited = _wait_exit(pid, deadline, (lambda: seen.update(sessions.members())) if sample else None)
    wall_s = time.perf_counter() - start
    problems = []
    rc = None
    if exited:
        _, status, rusage = os.wait4(pid, 0)
        usage.add(rusage)
        rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            problems.append(f"exit code {rc}")
    else:
        sessions.kill(usage)
        problems.append("killed at the run's time limit")
    # Reaped above, by os.wait4; Popen must not wait on the pid again.
    proc.returncode = -signal.SIGKILL if rc is None else rc

    # Commands run one at a time, so every process of this run that is
    # still here belongs to this command.
    exit_time = time.perf_counter()
    while True:
        sessions.reap(usage)
        members = sessions.members()
        if sample:
            seen.update(members)
        if not members:
            break
        if time.perf_counter() - exit_time > DRAIN_LIMIT_S or time.monotonic() > deadline:
            killed = sessions.kill(usage)
            problems.append(f"{killed} process(es) outlived the command by "
                            f"{DRAIN_LIMIT_S:.0f} s and were killed")
            break
        time.sleep(0.02)
    drain_s = time.perf_counter() - exit_time
    seen.discard(pid)
    return Outcome(argv, rc, wall_s, usage.cpu_s, usage.maxrss_kb * 1024 / 1e6,
                   drain_s, len(seen), problems)


# ---------------------------------------------------------------------- #
# Shared memory and the checkout's work directory
# ---------------------------------------------------------------------- #
def drop_segments(registry: Path) -> int:
    """Unlink the arena segments named in one arena registry; returns their bytes.

    Every command runs with a private ``REPRO_ARENA_DIR``, and each segment
    the package publishes leaves a ``<digest>.json`` descriptor there that
    names it, so this touches only segments that command created.
    """
    freed = 0
    for descriptor in registry.glob("*.json"):
        try:
            name = json.loads(descriptor.read_text())["segment"]
        except (OSError, ValueError, KeyError, TypeError):
            continue
        if not (isinstance(name, str) and name.startswith(SEGMENT_PREFIX) and "/" not in name):
            continue
        try:
            size = (SHM / name).stat().st_size
            (SHM / name).unlink()
            freed += size
        except FileNotFoundError:
            pass
    return freed


def _is_benchmark(pid: int) -> bool:
    try:
        return b"perfbench" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def claim_checkout() -> Path:
    """Take ``.perfbench/`` for this run, or refuse.

    Refuses while another run is active in this checkout, and when
    ``/dev/shm`` holds arena segments this benchmark did not create:
    segment names are content-addressed and global, so another user's
    segments would mix with this run's and could serve it.  A killed
    earlier run here left its work directory behind; the segments its
    arena registries name are its own and are removed first.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    marker = WORK_ROOT / "active.json"
    if marker.exists():
        pid = json.loads(marker.read_text())["pid"]
        if _is_benchmark(pid):
            raise Refused(f"another benchmark run (pid {pid}) is active in this checkout")
    for registry in WORK_ROOT.glob("run-*/*/arena"):
        drop_segments(registry)
    foreign = sorted(path.name for path in SHM.glob(SEGMENT_PREFIX + "*"))
    if foreign:
        raise Refused(
            f"{SHM} holds {len(foreign)} arena segment(s) this benchmark did not create "
            f"({', '.join(foreign[:3])}...); remove them (read-repro cache gc) and rerun"
        )
    for old in WORK_ROOT.glob("run-*"):
        shutil.rmtree(old, ignore_errors=True)
    marker.write_text(json.dumps({"pid": os.getpid()}))
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir()
    return work


def source_digest() -> str:
    """sha256 of every file under ``src/``: names the program version."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def output_digests(artifacts: Path) -> Dict[str, str]:
    """sha256 of each deterministic output file of a command.

    Renderings byte for byte; ``manifest.json`` without its volatile
    ``run`` block; an ``.npz`` by its members' bytes (the zip headers
    hold write times).
    """
    digests = {}
    files = sorted(p for p in artifacts.rglob("*") if p.is_file()) if artifacts.is_dir() else []
    for path in files:
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            manifest.pop("run", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        elif path.suffix == ".npz":
            with zipfile.ZipFile(path) as archive:
                data = b"".join(
                    name.encode() + b"\0" + archive.read(name) for name in sorted(archive.namelist())
                )
        else:
            data = path.read_bytes()
        digests[path.relative_to(artifacts).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def parse_summary(text: str) -> Optional[Dict[str, int]]:
    """The counters of the last engine summary line of a command's output."""
    matches = list(SUMMARY.finditer(text))
    if not matches:
        return None
    match = matches[-1]
    summary = {k: int(match.group(k)) for k in ("submitted", "hits", "deduped", "simulated")}
    rest = match.group("rest")
    for name, pattern in SUMMARY_EXTRAS.items():
        found = pattern.search(rest)
        summary[name] = int(found.group(1)) if found else 0
    return summary


def _tail(log: Path, lines: int = 15) -> str:
    try:
        text = log.read_text(errors="replace").splitlines()[-lines:]
    except OSError:
        return ""
    return "\n    " + "\n    ".join(text)


# ---------------------------------------------------------------------- #
# One benchmark invocation
# ---------------------------------------------------------------------- #
class Run:
    """One invocation's workload, work directory, deadline and outcomes."""

    def __init__(self, name: str, work: Path, sessions: Sessions, pin: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.sessions = sessions
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.pin = pin
        self.pins = json.loads(PINS.read_text()).get(name) if PINS.exists() else None
        self.store_build: Optional[Outcome] = None
        self.setups: List[Outcome] = []
        self.commands: List[Outcome] = []
        self.digests: List[Dict[str, str]] = []
        self.env: Dict[str, str] = {}
        self._seq = 0

    def _dir(self, label: str) -> Path:
        self._seq += 1
        path = self.work / f"{self._seq:02d}-{label}"
        path.mkdir()
        return path

    def _env(self, where: Path, cache: Path) -> Dict[str, str]:
        """Inherited environment minus REPRO_*, plus this command's private dirs."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        for sub in ("arena", "tmp"):
            (where / sub).mkdir(exist_ok=True)
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE=str(cache),
            REPRO_ARENA_DIR=str(where / "arena"),
            TMPDIR=str(where / "tmp"),
        )
        self.env = env
        return env

    def _run(self, argv: List[str], env: Dict[str, str], log: Path,
             sample: bool = False) -> Outcome:
        return run_command(self.sessions, argv, env, log, self.deadline, sample)

    def cli(self, artifacts: Path, trace: Optional[Path] = None) -> List[str]:
        head = ([sys.executable, str(CHILD), "--trace", str(trace), "cli"] if trace
                else [sys.executable, "-m", "repro"])
        return [*head, *self.workload.argv, "--artifacts", str(artifacts)]

    def train(self, trace: Optional[Path] = None) -> List[str]:
        traced = ["--trace", str(trace)] if trace else []
        return [sys.executable, str(CHILD), *traced, "train", *self.workload.recipes]

    def facts(self) -> dict:
        """Host facts, from a child that also proves ``repro`` is this checkout's."""
        where = self._dir("facts")
        log = where / "facts.log"
        out = self._run([sys.executable, str(CHILD), "facts"], self._env(where, where / "cache"), log)
        if out.problems:
            raise Refused("cannot import the package: " + "; ".join(out.problems) + _tail(log))
        facts = json.loads(log.read_text().splitlines()[-1])
        src = (ROOT / "src").resolve()
        if not Path(facts["repro_file"]).resolve().is_relative_to(src):
            raise Refused(f"repro resolves to {facts['repro_file']}, not to {src}")
        facts["nproc"] = len(os.sched_getaffinity(0))
        return facts

    def bundle_store(self) -> Path:
        """This checkout's trained bundles for the workload, trained on first use.

        Keyed by the program's source, so a change to the program trains
        them again.  Training here is a build step, outside ``setup_s``.
        """
        key = hashlib.sha256(f"{source_digest()} {self.workload.recipes}".encode()).hexdigest()
        store = WORK_ROOT / "bundles" / key[:16]
        if not store.is_dir():
            where = self._dir("store")
            cache = where / "cache"
            cache.mkdir()
            log = where / "train.log"
            out = self._run(self.train(), self._env(where, cache), log)
            drop_segments(where / "arena")
            self.store_build = out
            if out.problems:
                raise Refused(f"training the bundles failed ({'; '.join(out.problems)}){_tail(log)}")
            store.parent.mkdir(exist_ok=True)
            cache.rename(store)
        return store

    def setup(self, trace: Optional[Path] = None) -> Tuple[Outcome, Path]:
        """Build the start state; returns (its timed step, cache).

        The cache starts empty and the bundles are trained in it, or, for
        a warm workload, it starts as an untimed copy of the checkout's
        trained bundles and the command runs once to fill it.
        """
        where = self._dir("setup")
        cache = where / "cache"
        if self.workload.warm:
            shutil.copytree(self.bundle_store(), cache)
            argv, log = self.cli(where / "artifacts"), where / "cold.log"
        else:
            cache.mkdir()
            argv, log = self.train(trace), where / "train.log"
        out = self._run(argv, self._env(where, cache), log)
        drop_segments(where / "arena")
        self.setups.append(out)
        if out.problems:
            raise Refused(f"set-up failed ({'; '.join(out.problems)}): {' '.join(argv)}{_tail(log)}")
        return out, cache

    def command(self, start_state: Path, sample: bool = False,
                trace: Optional[Path] = None) -> Tuple[Outcome, str, Path]:
        """One checked workload command from a fresh copy of the start state."""
        where = self._dir("traced" if trace else "run")
        cache = where / "cache"
        shutil.copytree(start_state, cache)
        artifacts = where / "artifacts"
        log = where / "output.log"
        out = self._run(self.cli(artifacts, trace), self._env(where, cache), log, sample)
        out.shm_left_mb = drop_segments(where / "arena") / 1e6
        text = log.read_text(errors="replace")
        out.problems += self._check(artifacts, text)
        self.commands.append(out)
        if out.problems:
            print(f"perfbench: command {len(self.commands)} failed: "
                  f"{'; '.join(out.problems)}{_tail(log)}", file=sys.stderr)
        return out, text, where

    def _check(self, artifacts: Path, text: str) -> List[str]:
        problems = []
        summary = parse_summary(text)
        if summary is None:
            problems.append("no engine summary line in the output")
        elif self.workload.warm and summary["simulated"]:
            problems.append(f"warm run simulated {summary['simulated']} job(s)")
        digests = output_digests(artifacts)
        self.digests.append(digests)
        if self.pin:
            return problems
        if self.pins is None:
            problems.append(f"{PINS.name} has no digests for {self.name}")
        elif digests != self.pins:
            changed = sorted(k for k in digests.keys() | self.pins.keys()
                             if digests.get(k) != self.pins.get(k))
            problems.append(f"outputs differ from {PINS.name}: {', '.join(changed)}")
        return problems

    @property
    def failed(self) -> int:
        return sum(1 for out in self.commands if out.problems)


def _host_scaled(out: Outcome, before: float, after: float) -> float:
    """``out.wall_s`` on a host where the reference unit takes REF_UNIT_S."""
    out.host_ref_s = (before + after) / 2
    return out.wall_s * REF_UNIT_S / out.host_ref_s


def measure_end_to_end(run: Run, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    ref = host_reference()
    setups = []
    for _ in range(run.workload.setups):
        out, start_state = run.setup()
        after = host_reference()
        setups.append(_host_scaled(out, ref, after))
        ref = after
    window = time.monotonic()
    walls = []
    while True:
        began = time.monotonic()
        out, _, where = run.command(start_state)
        shutil.rmtree(where)
        after = host_reference()
        walls.append(_host_scaled(out, ref, after))
        ref = after
        now = time.monotonic()
        # Start another command only if it fits in the window and the budget.
        if now + (now - began) > min(window + seconds, run.deadline):
            break
    metrics = {
        "wall_ref_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(o.peak_rss_mb for o in run.commands),
    }
    timed = run.commands + run.setups
    notes = [
        f"raw wall clocks: commands {statistics.median(o.wall_s for o in run.commands):.6f} s, "
        f"set-ups {statistics.median(o.wall_s for o in run.setups):.6f} s; wall_ref_s and "
        f"setup_s scale them by {REF_UNIT_S * 1e3:g} ms over the host reference unit, which "
        f"took {statistics.median(o.host_ref_s for o in timed) * 1e3:.3f} ms",
        f"wall_ref_s and peak_rss_mb are medians of {len(walls)} command(s), "
        f"setup_s of {len(setups)} set-up(s)",
    ]
    return metrics, notes


def measure_layers(run: Run) -> Tuple[Dict[str, float], List[str], dict]:
    setup_trace = run.work / "setup-trace.json"
    _, start_state = run.setup(trace=setup_trace)
    untraced, _, _ = run.command(start_state, sample=True)
    command_trace = run.work / "command-trace.json"
    traced, text, where = run.command(start_state, trace=command_trace)
    if not command_trace.is_file():
        raise Refused("the traced command wrote no trace record")
    setup_rec = json.loads(setup_trace.read_text()) if setup_trace.is_file() else {"incl_s": {}}
    rec = json.loads(command_trace.read_text())
    manifest_path = where / "artifacts" / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}
    values = layer_values(setup_rec, rec, parse_summary(text) or {}, manifest, untraced, traced)

    notes = [f"{name}: 0 on this workload ({LAYERS[name][1]})"
             for name, value in values.items() if value == 0]
    if run.workload.warm:
        notes.append("nn.fit_s: the set-up trains nothing; it copies the checkout's "
                     "trained bundles")
    argv = run.workload.argv
    if argv[argv.index("--jobs") + 1] != "1":
        notes.append(
            "pool workers ship their span totals home with each result, so layer "
            "times include worker-side time and can sum past the wall clock; "
            "engine.scheduler.self_s is the parent waiting on the pool, and "
            "trace.unattributed_s covers the parent's spans only"
        )
    notes.append("nn.qeval_s covers QuantizedNetwork.evaluate only; the mixer's "
                 "quantized evaluations count in their callers' self time")
    notes.append(f"process.children samples /proc every {SAMPLE_S} s; shorter-lived "
                 "processes can be missed")
    return values, notes, {"setup_trace": setup_rec, "command_trace": rec}


def layer_values(setup_rec: dict, rec: dict, summary: Dict[str, int], manifest: dict,
                 untraced: Outcome, traced: Outcome) -> Dict[str, float]:
    workers = rec["workers"]

    def self_s(name: str) -> float:
        return rec["self_s"].get(name, 0.0) + workers["self_s"].get(name, 0.0)

    def calls(name: str) -> int:
        return rec["calls"].get(name, 0) + workers["calls"].get(name, 0)

    def count(name: str) -> float:
        return rec["counts"].get(name, 0) + workers["counts"].get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run_block = manifest.get("run", {})
    trials = count("nn.trials") + count("nn.token_trials")
    loads = calls("engine.cache.load")
    macs = count("engine.vector.macs")
    values = {
        "nn.fit_s": setup_rec["incl_s"].get("nn.fit", 0.0),
        "nn.float_eval_s": self_s("nn.float_eval"),
        "nn.calibrate_s": self_s("nn.calibrate"),
        "nn.qeval_s": self_s("nn.qeval"),
        "nn.fault_free_pass_s": self_s("nn.fault_free_pass"),
        "nn.trials_s": self_s("nn.trials"),
        "nn.trials": count("nn.trials"),
        "nn.token_trials_s": self_s("nn.token_trials"),
        "nn.token_trials": count("nn.token_trials"),
        "experiments.get_bundle_s": self_s("experiments.get_bundle"),
        "experiments.get_bundle_calls": calls("experiments.get_bundle"),
        "experiments.record_s": self_s("experiments.record"),
        "experiments.plan_s": self_s("experiments.plan"),
        "experiments.render_s": self_s("experiments.render"),
        "experiments.shards_run": run_block.get("executed_shards", 0),
        "experiments.shards_cancelled": run_block.get("cancelled_shards", 0),
        "experiments.trials_counted": manifest.get("totals", {}).get("counted_trials", 0),
        "engine.scheduler.self_s": self_s("engine.scheduler"),
        "engine.scheduler.submitted": summary.get("submitted", 0),
        "engine.scheduler.hits": summary.get("hits", 0),
        "engine.scheduler.simulated": summary.get("simulated", 0),
        "engine.scheduler.deduped": summary.get("deduped", 0),
        "engine.scheduler.cancelled": summary.get("cancelled", 0),
        "engine.cache.load_s": self_s("engine.cache.load"),
        "engine.cache.loads": loads,
        "engine.cache.load_misses": count("engine.cache.load_misses"),
        "engine.cache.keys_loaded": rec["keys_loaded"],
        "engine.cache.loads_per_key": ratio(loads, rec["keys_loaded"]),
        "engine.cache.deserialize_s": self_s("engine.cache.deserialize"),
        "engine.cache.store_s": self_s("engine.cache.store"),
        "engine.cache.stores": calls("engine.cache.store"),
        "engine.cache.bytes_stored": count("engine.cache.bytes_stored"),
        "engine.job.key_s": self_s("engine.job.key"),
        "engine.job.keys": calls("engine.job.key"),
        "core.plan_s": self_s("core.plan"),
        "core.plans": calls("core.plan"),
        "core.plan_memo_hits": count("core.plan_memo_hits"),
        "engine.vector.s": self_s("engine.vector"),
        "engine.vector.jobs": count("engine.vector.jobs"),
        "engine.vector.macs": macs,
        "engine.vector.ns_per_mac": ratio(self_s("engine.vector") * 1e9, macs),
        "hw.price_s": self_s("hw.price"),
        "faults.inject_s": self_s("faults.inject"),
        "faults.flip_plan_s": self_s("faults.flip_plan"),
        "faults.flip_plans": calls("faults.flip_plan"),
        "faults.trials_deduped": summary.get("trials_deduped", 0),
        "faults.trials_pruned": summary.get("trials_pruned", 0),
        "faults.dedup_ratio": ratio(summary.get("trials_deduped", 0), trials),
        "engine.arena.publish_s": self_s("engine.arena"),
        "engine.arena.stores": summary.get("arena_stores", 0),
        "engine.arena.hits": summary.get("arena_hits", 0),
        "engine.arena.errors": summary.get("arena_errors", 0),
        "engine.arena.bytes": count("engine.arena.bytes"),
        "process.import_s": rec["import_s"],
        "process.cpu_s": untraced.cpu_s,
        "process.children": untraced.children,
        "process.drain_s": untraced.drain_s,
        "shm_left_mb": untraced.shm_left_mb,
        "trace.unattributed_s": traced.wall_s - rec["import_s"] - sum(rec["self_s"].values()),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    return values


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def _redacted(env: Dict[str, str]) -> Dict[str, str]:
    return {k: ("<redacted>" if SECRET.search(k) else v) for k, v in sorted(env.items())}


def print_header(args, run: Run, facts: dict, record_path: Path) -> None:
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"inputs: {INPUTS}")
    print(f"host: nproc {facts['nproc']}, {facts['python']}, numpy {facts['numpy']}, "
          f"BLAS {facts['blas']}, BLAS threads {facts['blas_threads']}")
    print(f"command: {' '.join(run.cli(Path('<artifacts>')))}")
    print("children's environment: "
          + ", ".join(f"{k}={run.env.get(k, '<unset>')}" for k in SHOWN_ENV)
          + f"; all of it in {record_path.relative_to(ROOT)}")


def emit(metrics: Dict[str, float], units: Dict[str, str], run: Run) -> None:
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6f} {units[name]}")
    attempted = len(run.commands)
    print(json.dumps({
        "correct": run.failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def write_pins(run: Run) -> None:
    if len({json.dumps(d, sort_keys=True) for d in run.digests}) != 1 or not run.digests[0]:
        raise Refused("the runs disagree on their outputs (or wrote none); nothing pinned")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[run.name] = run.digests[0]
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="labels the run (see INPUTS)")
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests in pins.json instead of checking")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _interrupt)
    subreaper = _become_subreaper()
    sessions = Sessions()
    work = None
    try:
        work = claim_checkout()
        run = Run(args.workload, work, sessions, args.pin)
        facts = run.facts()
        facts["subreaper"] = subreaper
        if args.trace:
            metrics, notes, traces = measure_layers(run)
            units = {name: unit for name, (unit, _) in LAYERS.items()}
        else:
            (metrics, notes), traces = measure_end_to_end(run, args.seconds), {}
            units = END_TO_END
        stray = sessions.kill(Usage())
        if stray:
            raise Refused(f"{stray} process(es) of this run were still alive after its last "
                          "command had drained")
        record_path = WORK_ROOT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        print_header(args, run, facts, record_path)
        for note in notes:
            print(f"note: {note}")
        if args.pin:
            write_pins(run)
        record_path.parent.mkdir(exist_ok=True)
        record_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs": INPUTS, "host": facts,
            "environment": _redacted(run.env),
            "store_build": asdict(run.store_build) if run.store_build else None,
            "setups": [asdict(o) for o in run.setups],
            "commands": [asdict(o) for o in run.commands],
            "metrics": metrics, "notes": notes, **traces,
        }, indent=1))
        emit(metrics, units, run)
        return 0
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except Interrupted as exc:
        print(f"perfbench: stopped by {exc}", file=sys.stderr)
        return 1
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        sessions.kill(Usage())
        if work is not None:
            for registry in work.glob("*/arena"):
                drop_segments(registry)
            shutil.rmtree(work, ignore_errors=True)
            (WORK_ROOT / "active.json").unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
