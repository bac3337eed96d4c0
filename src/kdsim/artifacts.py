"""On-disk artifacts: model snapshots, manifests, fingerprints.

Every pipeline stage writes its outputs under one run directory and
records them in ``manifest.json`` together with a fingerprint of the
configuration slice that stage depends on. Later stages refuse to
consume artifacts whose fingerprint disagrees with the current
configuration unless forced, which catches the classic mistake of
editing a config halfway through a run.

Model files use a small self-describing binary format (magic ``KDSM``)
holding the fingerprint, the init seed and the raw float64 parameters in
little-endian order. Writing the same model twice produces identical
bytes; no timestamps or environment data are embedded anywhere.

Every file is written whole or not at all (`atomic_write`).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ParseError
from .nn import ArchSpec, Model

if TYPE_CHECKING:  # config -> orchestrate -> metrics imports this module
    from .config import RunConfig

MODEL_MAGIC = b"KDSM"
MODEL_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

# Which config sections feed each stage, and which stage it builds on.
# A change to any listed section (or to anything upstream) changes the
# stage fingerprint.
STAGE_PARENTS = {
    "partition": None,
    "pretrain": "partition",
    "distill": "pretrain",
    "grid": "pretrain",
    "matrix": "pretrain",
    "consolidate": "pretrain",
    "fedavg": "consolidate",
}
STAGE_SECTIONS = {
    "partition": ("dataset", "partition"),
    "pretrain": ("model", "pretrain"),
    "distill": ("pool", "distill"),
    "grid": ("pool", "distill", "grid"),
    "matrix": ("pool", "distill", "grid"),
    "consolidate": ("pool", "distill", "consolidate"),
    "fedavg": ("fed",),
}


def _fields(section) -> dict:
    """A config section as the dict `dataclasses.asdict` gives: its fields
    hold only scalars, lists, tuples and None, which need no deep copy."""
    return {name: getattr(section, name) for name in section.__dataclass_fields__}


def config_fingerprint(cfg: RunConfig, stage: str) -> str:
    """Hex fingerprint of the config slice a stage depends on.

    Chained through STAGE_PARENTS so upstream changes invalidate
    everything downstream: each stage's payload holds its parent's
    fingerprint, computed first, from the root down.
    """
    if stage not in STAGE_PARENTS:
        raise ConfigError(f"unknown stage {stage!r}")
    chain = [stage]
    while STAGE_PARENTS[chain[-1]]:
        chain.append(STAGE_PARENTS[chain[-1]])
    fingerprint = ""
    for name in reversed(chain):
        payload = {
            "v": 1,
            "stage": name,
            "parent": fingerprint,
            "seed": cfg.seed,
            "config": {section: _fields(getattr(cfg, section)) for section in STAGE_SECTIONS[name]},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return fingerprint


# -- file writing -----------------------------------------------------------


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file beside path; once written it replaces path,
    so readers see the old file or the new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write canonical JSON: sorted keys, indent 1, trailing newline. The
    text is streamed into the file, never held whole in memory."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read(path: Path, mode: str = "r"):
    """A file's whole text or bytes; a missing or unreadable file raises
    ParseError naming it."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None


def read_json(path: str | Path):
    p = Path(path)
    try:
        return json.loads(_read(p))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: not valid JSON ({exc})") from None


# -- model binary format ----------------------------------------------------


def save_model(path: str | Path, model: Model, fingerprint: str) -> None:
    fp_bytes = fingerprint.encode("ascii")
    dims = model.arch.layer_dims()
    parts = [
        MODEL_MAGIC,
        struct.pack("<I", MODEL_FORMAT_VERSION),
        struct.pack("<H", len(fp_bytes)),
        fp_bytes,
        struct.pack("<Q", model.seed),
        struct.pack("<I", len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
    ]
    for w, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with atomic_write(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, path: Path):
        self.path = path
        self.blob = _read(path, "rb")
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ParseError(f"{self.path}: truncated model file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(
    path: str | Path,
    expect_fingerprint: str | None = None,
    force: bool = False,
) -> Model:
    """Load a model snapshot, checking its config fingerprint.

    A fingerprint mismatch raises ConfigError unless force is set; a
    missing or malformed file raises ParseError.
    """
    r = _Reader(Path(path))
    if r.take(4) != MODEL_MAGIC:
        raise ParseError(f"{path}: not a model file (bad magic)")
    (version,) = r.unpack("<I")
    if version != MODEL_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported model format version {version}")
    (fp_len,) = r.unpack("<H")
    fingerprint = r.take(fp_len).decode("ascii")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        if not force:
            raise ConfigError(
                f"{path}: saved under config fingerprint {fingerprint}, current "
                f"is {expect_fingerprint}; rerun the producing stage or pass --force"
            )
    (seed,) = r.unpack("<Q")
    (n_dims,) = r.unpack("<I")
    if n_dims < 2:
        raise ParseError(f"{path}: needs at least input and output dims")
    dims = list(r.unpack(f"<{n_dims}I"))
    arch = ArchSpec(
        input_dim=dims[0], hidden_layers=tuple(dims[1:-1]), num_classes=dims[-1]
    )
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        weights.append(np.frombuffer(r.take(din * dout * 8), dtype="<f8").reshape(din, dout))
        biases.append(np.frombuffer(r.take(dout * 8), dtype="<f8"))
    if r.pos != len(r.blob):
        raise ParseError(f"{path}: trailing bytes after parameters")
    return Model(arch=arch, weights=weights, biases=biases, seed=seed)


# -- manifest ---------------------------------------------------------------


def empty_manifest(cfg: RunConfig) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": cfg.seed,
        "stages": {},
    }


def load_manifest(out_dir: str | Path) -> dict | None:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        return None
    manifest = read_json(path)
    if not isinstance(manifest, dict) or "stages" not in manifest:
        raise ParseError(f"{path}: not a run manifest")
    return manifest


def record_stage(
    out_dir: str | Path,
    cfg: RunConfig,
    stage: str,
    artifacts: dict[str, str],
) -> str:
    """Register a finished stage in the manifest; returns its fingerprint."""
    out = Path(out_dir)
    manifest = load_manifest(out)
    if manifest is None:
        manifest = empty_manifest(cfg)
    fingerprint = config_fingerprint(cfg, stage)
    manifest["stages"][stage] = {
        "fingerprint": fingerprint,
        "artifacts": dict(sorted(artifacts.items())),
    }
    write_json(out / MANIFEST_NAME, manifest)
    return fingerprint


def require_stage(
    out_dir: str | Path,
    cfg: RunConfig,
    stage: str,
    force: bool = False,
) -> dict[str, str]:
    """Look up a prerequisite stage's artifacts, checking its fingerprint.

    Raises ConfigError naming the subcommand that produces the stage when
    it has not run yet or was run under a different configuration.
    """
    manifest = load_manifest(out_dir)
    entry = None if manifest is None else manifest["stages"].get(stage)
    if entry is None:
        raise ConfigError(
            f"stage {stage!r} has not run in {out_dir}; run `kdsim {stage}` first"
        )
    expected = config_fingerprint(cfg, stage)
    if entry["fingerprint"] != expected and not force:
        raise ConfigError(
            f"stage {stage!r} in {out_dir} was produced under fingerprint "
            f"{entry['fingerprint']}, current config gives {expected}; rerun "
            f"`kdsim {stage}` or pass --force"
        )
    return entry["artifacts"]
