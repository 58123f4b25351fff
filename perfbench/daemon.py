"""The real ``sief serve`` daemon as a child process, observed from outside."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_SERVING = re.compile(r"serving on (\S+):(\d+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text to ``{series: value}``; histogram buckets dropped.

    Histograms keep their ``_sum`` and ``_count`` series, which is all a
    delta of means needs.  The benchmark parses the exposition itself
    rather than through ``repro.obs.export``, so a change to the
    program's parser cannot change what the benchmark reads.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        m = _SAMPLE.match(line.strip())
        if m is None or m.group(2):
            continue
        out[m.group(1)] = float(m.group(3))
    return out


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


class Daemon:
    """``python -m repro.cli serve STORE [flags]`` with its lifetime owned here."""

    def __init__(
        self, store: Path, flags: List[str], env: Dict[str, str], log: Path
    ) -> None:
        self.argv = [sys.executable, "-m", "repro.cli", "serve", str(store)]
        self.argv += flags
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def wait_listening(self, timeout: float = 60.0) -> None:
        """Block until the daemon printed its ``serving on`` line."""
        deadline = time.monotonic() + timeout
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon did not start: {' '.join(self.argv)} "
                    f"(exit {self.proc.poll()}, see {self._log.name})"
                )
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buf += chunk
        m = _SERVING.search(buf.decode(errors="replace"))
        if m is None:
            raise RuntimeError(f"unexpected daemon output {buf!r}")
        self.host, self.port = m.group(1), int(m.group(2))

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the daemon process, read from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported by /proc")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode
