"""The server under test as a child process: spawn, time to first
``ping``, ``/proc`` counters, and a clean SIGINT stop.

The untraced server is exactly ``python -m repro serve DIR --port 0`` with
default flags (``sync=fsync``, no auto-checkpoint).  The traced one runs
the same CLI through ``traced_server.py``.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Set

_SERVING = re.compile(rb"serving .* on ([0-9.]+):(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class Server:
    """One running server process."""

    def __init__(
        self,
        root: Path,
        db_dir: Path,
        log_path: Path,
        spans_path: Optional[Path],
        cpus: Optional[Set[int]] = None,
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        if spans_path is None:
            entry = ["-m", "repro"]
        else:
            entry = [str(root / "perfbench" / "traced_server.py"), str(spans_path)]
        command: List[str] = [sys.executable, "-u", *entry, "serve", str(db_dir), "--port", "0"]
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.cpus = cpus
        try:
            if cpus:
                # before the interpreter is up: every thread it starts inherits
                os.sched_setaffinity(self.process.pid, cpus)
            self.host, self.port = self._await_banner()
            self._ping()
        except BaseException:
            self._terminate()
            raise
        #: spawn until the first ``ping`` is answered (recovery included)
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def _await_banner(self):
        deadline = time.perf_counter() + START_TIMEOUT_S
        stdout = self.process.stdout
        assert stdout is not None
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not selector.select(timeout=deadline - time.perf_counter()):
                    break
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                found = _SERVING.search(buffered)
                if found:
                    return found.group(1).decode(), int(found.group(2))
        raise RuntimeError(
            f"server did not start (exit code {self.process.poll()}); "
            f"output so far: {buffered[-500:]!r}"
        )

    def _ping(self) -> None:
        with socket.create_connection((self.host, self.port), timeout=START_TIMEOUT_S) as sock:
            sock.sendall(b'{"id":0,"do":"ping"}\n')
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        if not json.loads(reply or b"{}").get("pong"):
            raise RuntimeError(f"bad ping reply {reply!r}")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        # fields[0] is the state (field 3); utime, stime are fields 14, 15
        return (int(fields[11]) + int(fields[12])) * _TICK_S

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI drains every writer, then exits), then wait."""
        code = self._terminate()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")

    def _terminate(self) -> int:
        process = self.process
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.communicate(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.communicate()
            else:
                process.communicate()
        finally:
            self._log.close()
        return process.returncode


class HostProbe:
    """``probe.py`` on the server's CPU, from before set-up to the end of
    the measured window."""

    def __init__(self, script: Path, cpus: Optional[Set[int]]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(script)], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            if cpus:
                os.sched_setaffinity(self.process.pid, cpus)
            assert self.process.stdout is not None
            ready = self.process.stdout.readline()
            if ready.strip() != b"ready":
                raise RuntimeError(f"host probe did not start: {ready!r}")
        except BaseException:
            self.close()
            raise

    def stop(self) -> float:
        """Close the probe's input; returns its median probe time (ms)."""
        out, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
        return float(out.split()[-1])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
