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

A command sees its run directory through one `RunDir`, which reads the
manifest once and computes each stage fingerprint once. A model file's
parameters are parsed once per process for each content of the file:
the returned Model may be shared, and its arrays are read-only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import read_only
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


def config_fingerprint(cfg: RunConfig, stage: str, known: dict[str, str] | None = None) -> str:
    """Hex fingerprint of the config slice a stage depends on.

    Chained through STAGE_PARENTS so upstream changes invalidate
    everything downstream: each stage's payload holds its parent's
    fingerprint. `known` maps stages to their fingerprints under this
    same `cfg`; it is read and filled in, so a caller that keeps it
    computes each stage once (see `RunDir`).
    """
    if stage not in STAGE_PARENTS:
        raise ConfigError(f"unknown stage {stage!r}")
    known = {} if known is None else known
    if stage not in known:
        parent = STAGE_PARENTS[stage]
        payload = {
            "v": 1,
            "stage": stage,
            "parent": config_fingerprint(cfg, parent, known) if parent else "",
            "seed": cfg.seed,
            "config": {section: _fields(getattr(cfg, section)) for section in STAGE_SECTIONS[stage]},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        known[stage] = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return known[stage]


def _downstream(stage: str) -> list[str]:
    """The stages built on `stage`, directly or through others."""
    found = []
    for name, parent in STAGE_PARENTS.items():
        while parent is not None and parent != stage:
            parent = STAGE_PARENTS[parent]
        if parent == stage:
            found.append(name)
    return found


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


def read_bytes(path: str | Path) -> bytes:
    """A file's whole bytes; a missing or unreadable file raises
    ParseError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None


def parse_json(path: str | Path, blob: bytes):
    """The JSON value `blob` holds, read from `path`, which a ParseError
    names."""
    try:
        return json.loads(blob)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: not valid JSON ({exc})") from None


def read_json(path: str | Path):
    return parse_json(path, read_bytes(path))


@contextmanager
def decoding(path: str | Path):
    """Report what a decoder of the JSON value read from `path` meets in a
    value of the wrong layout (a missing key, a list for a mapping, text
    for a number, an integer past int64) as a ParseError naming `path`."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: unexpected layout ({type(exc).__name__}: {exc})") from None


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
    def __init__(self, path: Path, blob: bytes, pos: int = 0):
        self.path = path
        self.blob = blob
        self.pos = pos

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
    missing or malformed file raises ParseError. The file is read and its
    header checked on every call; the parameters are parsed once per
    process for each content of the file (`_parse_model`), so the Model
    may be shared and its arrays are read-only.
    """
    path = Path(path)
    r = _Reader(path, read_bytes(path))
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
    return _parse_model(path, r.blob, r.pos)


@functools.lru_cache(maxsize=16)
def _parse_model(path: Path, blob: bytes, pos: int) -> Model:
    """The read-only Model whose seed, dims and parameters `blob` holds
    from `pos` on. A request reads two of the K participants' models, so
    the cache holds more than the latest two: sixteen entries of about
    20 KB each at the default model size."""
    r = _Reader(path, blob, pos)
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
    model = Model(arch=arch, weights=weights, biases=biases, seed=seed)
    read_only(model.params, *model.weights, *model.biases)
    return model


# -- manifest ---------------------------------------------------------------


def empty_manifest(cfg: RunConfig) -> dict:
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": cfg.seed,
        "stages": {},
    }


def load_manifest(out_dir: str | Path) -> dict | None:
    """The run manifest, or None if there is none. One of another schema
    version, or whose layout is not a manifest's, down to each stage's
    fingerprint and artifact paths, raises ParseError naming it."""
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        return None
    manifest = read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        raise ParseError(f"{path}: not a run manifest")
    version = manifest.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported manifest schema {version!r}; start a new run")
    for stage, entry in manifest["stages"].items():
        if not isinstance(entry, dict) or not isinstance(entry.get("fingerprint"), str):
            raise ParseError(f"{path}: stage {stage!r} has no fingerprint")
        artifacts = entry.get("artifacts")
        if not isinstance(artifacts, dict) or not all(
            isinstance(rel, str) for rel in artifacts.values()
        ):
            raise ParseError(f"{path}: stage {stage!r} does not map its artifacts to paths")
    return manifest


def _identity(path: Path) -> tuple | None:
    """What tells one version of a file from the next (an atomic write
    makes a new inode), or None if there is no file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


class RunDir:
    """One command's view of a run directory under one configuration.

    The manifest is read on first use and again only if its file changed
    since (another command recorded a stage), and each stage fingerprint
    is computed once. `force` lets `require` hand out stale artifacts.
    """

    def __init__(self, out_dir: str | Path, cfg: RunConfig, force: bool = False):
        self.out = Path(out_dir)
        self.cfg = cfg
        self.force = force
        self._fingerprints: dict[str, str] = {}
        self._seen: tuple | None = None  # (file identity, manifest) as last read

    def fingerprint(self, stage: str) -> str:
        return config_fingerprint(self.cfg, stage, self._fingerprints)

    def manifest(self) -> dict | None:
        """The run manifest, or None before any stage has recorded one."""
        identity = _identity(self.out / MANIFEST_NAME)
        if self._seen is None or self._seen[0] != identity:
            self._seen = (identity, load_manifest(self.out))
        return self._seen[1]

    def record(self, stage: str, artifacts: dict[str, str], changed: bool = False) -> str:
        """Register a finished stage in the manifest; returns its
        fingerprint. `changed` says the stage wrote other outputs than
        the ones it replaces, which its fingerprint need not show: every
        stage on record that was built on them is then marked stale
        (`stale_after`), so `require` refuses it unless forced."""
        manifest = self.manifest()
        if manifest is None:
            manifest = empty_manifest(self.cfg)
        fingerprint = self.fingerprint(stage)
        stages = manifest["stages"]
        stages[stage] = {
            "fingerprint": fingerprint,
            "artifacts": dict(sorted(artifacts.items())),
        }
        if changed:
            for name in _downstream(stage):
                if name in stages:
                    stages[name]["stale_after"] = stage
        path = self.out / MANIFEST_NAME
        write_json(path, manifest)
        self._seen = (_identity(path), manifest)
        return fingerprint

    def require(self, stage: str) -> dict[str, str]:
        """Look up a prerequisite stage's artifacts, checking that it is
        current.

        Raises ConfigError naming the subcommand that produces the stage
        when it has not run yet, was run under a different configuration,
        or was built on outputs a later run replaced; the last two pass
        under `force`.
        """
        manifest = self.manifest()
        entry = None if manifest is None else manifest["stages"].get(stage)
        if entry is None:
            raise ConfigError(
                f"stage {stage!r} has not run in {self.out}; run `kdsim {stage}` first"
            )
        expected = self.fingerprint(stage)
        if entry["fingerprint"] != expected and not self.force:
            raise ConfigError(
                f"stage {stage!r} in {self.out} was produced under fingerprint "
                f"{entry['fingerprint']}, current config gives {expected}; rerun "
                f"`kdsim {stage}` or pass --force"
            )
        if "stale_after" in entry and not self.force:
            raise ConfigError(
                f"stage {stage!r} in {self.out} was built on the outputs of an earlier "
                f"`kdsim {entry['stale_after']}`; rerun `kdsim {stage}` or pass --force"
            )
        return entry["artifacts"]
