"""The two atomic steps every durable mutation is made of.

Every durable artifact — chain files, warehouse entry bodies — reaches
disk the same way (:func:`atomic_write_text`): rendered once into a
sibling ``*.tmp`` file, flushed and fsynced, then moved into place with
:func:`os.replace`. A kill at any byte offset therefore leaves either
the old file or the new file, never a torn one; the worst residue is a
stray temp file, which recovery sweeps up. Every deletion is
:func:`unlink_durably`: unlink, then one fsync of the directory.

The two crash windows are named fault points
(:data:`~repro.resilience.faults.PERSIST_WRITE` mid temp-file,
:data:`~repro.resilience.faults.PERSIST_RENAME` between a complete temp
file and the rename). When a write fault fires, the
helper deliberately leaves *half the payload* in the temp file before
raising — the bytes look exactly like a hard kill mid-``write(2)``, so
recovery tests exercise the real torn-file path, not a polite fiction.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import InjectedFaultError
from repro.resilience.faults import PERSIST_RENAME, PERSIST_WRITE, FiredFault

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience.faults import FaultInjector

#: Suffix every in-flight temp file carries; recovery globs and removes.
TMP_SUFFIX = ".tmp"


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    faults: "FaultInjector | None" = None,
    detail: str = "",
) -> None:
    """Atomically replace ``path`` with ``text`` (write → fsync → rename).

    :data:`~repro.resilience.faults.PERSIST_WRITE` fires before the
    payload hits the temp file and
    :data:`~repro.resilience.faults.PERSIST_RENAME` before the rename.
    On an injected write fault, half the payload is written first so the
    temp file is genuinely torn. An injected kill leaves
    its temp file on disk — that stray ``*.tmp`` IS the crash residue
    recovery must sweep, so cleaning it here would un-test recovery;
    real ``OSError`` failures still remove theirs.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if faults is not None:
                fired = faults.evaluate(PERSIST_WRITE)
                if fired is not None:
                    handle.write(text[: len(text) // 2])
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise _killed(PERSIST_WRITE, fired, detail or path.name)
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if faults is not None:
            faults.fire(PERSIST_RENAME, detail or str(path.name))
        os.replace(tmp_name, path)
    except InjectedFaultError:
        raise
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _killed(point: str, fired: FiredFault, detail: object) -> InjectedFaultError:
    return InjectedFaultError(
        f"{point}: injected fault on call {fired.call} {detail}"
    )


def unlink_durably(paths: Iterable[Path], directory: Path) -> None:
    """Unlink ``paths`` (a missing one is fine), then fsync ``directory``
    once, so a deletion the caller saw finish survives power loss."""
    for path in paths:
        path.unlink(missing_ok=True)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sweep_tmp_files(directory: str | Path) -> int:
    """Remove stray ``*.tmp`` files left by a kill; returns the count."""
    directory = Path(directory)
    removed = 0
    if not directory.is_dir():
        return 0
    for stray in sorted(directory.glob(f"*{TMP_SUFFIX}")):
        try:
            stray.unlink()
            removed += 1
        except OSError:
            continue
    return removed
