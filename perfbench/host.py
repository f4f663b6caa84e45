"""Provenance stamped on every result: what code ran, on what host.

A throughput number without its host is uninterpretable (two rows of
the same benchmark can differ 1.5x between hosts), so every result
carries the commit when one is known, a digest of the program source
(the checkout the benchmark runs in may not be a git repository) and a
host fingerprint.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def fingerprint() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": usable_cpus(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def commit(root: Path) -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(root: Path) -> Dict[str, object]:
    return {
        "commit": commit(root),
        "src_digest": source_digest(root / "src"),
        "host": fingerprint(),
    }
