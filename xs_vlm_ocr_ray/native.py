"""Build-once loader for the package's C extensions (``csrc/*.c``).

``load(name)`` compiles ``csrc/<name>.c`` with the system C compiler
(``cc -O2 -shared -fPIC``) the first time any process asks for it and
caches the shared object in the package's own ``csrc`` directory, under
a name keyed by the sha256 of the source and the interpreter's
``EXT_SUFFIX``: an edited source or another interpreter builds afresh,
and everything else only loads. The cache is never a shared,
world-writable directory, since any shared object planted there would be
loaded.

Processes racing on a first build (Ray workers importing the package
at once) are safe: each compiles to its own temporary name and
``os.replace``s it into place, so a loader only ever sees a complete
file. The driver imports the package before it starts Ray, so workers
normally just load the cached file.

When the build or the load fails, ``load`` logs one WARNING carrying the
compiler's stderr tail and returns ``None``; the caller then runs its
Python implementation and says which one it runs (``extract.SCAN_KERNEL``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import subprocess
import sysconfig
import tempfile
from types import ModuleType

log = logging.getLogger(__name__)

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "csrc")
BUILD_DIR = SRC_DIR
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
_STDERR_TAIL = 2000  # chars of compiler output kept in the warning


class BuildError(RuntimeError):
    """The compiler could not be run or rejected the source."""


def _compile(src: str, out: str) -> None:
    """Compile ``src`` into the shared object ``out``."""
    cmd = ["cc", "-O2", "-shared", "-fPIC", f"-I{sysconfig.get_paths()['include']}", src, "-o", out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BuildError(f"{cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise BuildError(proc.stderr[-_STDERR_TAIL:] or f"{cmd[0]} exited {proc.returncode}")


def _build(src: str, so: str) -> None:
    """Compile to a unique temporary name beside ``so``, then move it in."""
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(so) + ".", suffix=".tmp", dir=BUILD_DIR)
    os.close(fd)
    try:
        _compile(src, tmp)
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(name: str) -> ModuleType | None:
    """The compiled module ``csrc/<name>.c``, built on first use; ``None``
    (after one logged WARNING) when it cannot be built or loaded."""
    src = os.path.join(SRC_DIR, f"{name}.c")
    try:
        with open(src, "rb") as f:
            key = hashlib.sha256(f.read() + _EXT_SUFFIX.encode()).hexdigest()[:16]
        so = os.path.join(BUILD_DIR, f"{name}.{key}{_EXT_SUFFIX}")
        if not os.path.exists(so):
            _build(src, so)
        spec = importlib.util.spec_from_file_location(f"{__package__}.{name}", so)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    except (OSError, ImportError, BuildError) as e:
        log.warning("native module %s unavailable, using the Python implementation: %s", name, e)
        return None
    return mod
