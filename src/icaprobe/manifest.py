"""Run manifests: resolved config plus output digests.

A manifest is plain text, one ``key=value`` per line, with one
``file=NAME:SHA256HEX`` line per output.  Because the config keys mirror
the command's flags, a manifest doubles as a ``--config`` file: rerunning
the command with it reproduces the CSV outputs byte for byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

ARTIFACT_VERSION = "0.1.5"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config: dict, files) -> None:
    lines = [f"command={command}", f"version={ARTIFACT_VERSION}"]
    for key in sorted(config):
        lines.append(f"{key}={config[key]}")
    for f in files:
        lines.append(f"file={Path(f).name}:{sha256_file(f)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config(path) -> dict:
    """Parse key=value lines; digest and bookkeeping keys are skipped.

    Raises ``ValueError`` when a key other than ``file`` appears twice.
    """
    out = {}
    seen = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        if key == "file":
            continue
        if key in seen:
            raise ValueError(f"--config key {key} appears more than once")
        seen.add(key)
        if key not in ("command", "version"):
            out[key] = value.strip()
    return out
