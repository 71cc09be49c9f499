"""Manifold manifest files and deterministic JSON emission.

Manifests are UTF-8 JSON with fixed key order (id, dim, structure_constants,
metric, J, description).  Numbers are printed with 17 significant digits so a
double survives the text round trip bit-exactly; emission is deterministic,
which makes reports and emitted examples diffable across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .manifolds import LieFrameManifold


class ManifestError(Exception):
    """Base class for manifest I/O failures."""


class ManifestNotFoundError(ManifestError):
    pass


class ManifestFormatError(ManifestError):
    """Malformed JSON or wrong field types."""


class ManifestShapeError(ManifestError):
    """Arrays inconsistent with the declared dimension."""


@dataclass(frozen=True)
class ManifoldManifest:
    id: str
    dim: int
    structure_constants: NDArray = field(repr=False)
    metric: NDArray = field(repr=False)
    J: NDArray = field(repr=False)
    description: str = ""

    def to_manifold(self) -> LieFrameManifold:
        return LieFrameManifold(
            dim=self.dim,
            structure_constants=self.structure_constants,
            metric=self.metric,
            J=self.J,
        )


# ---------------------------------------------------------------------------
# deterministic JSON emission (17 significant digits for floats)
# ---------------------------------------------------------------------------


def json_number(x: float | None) -> str:
    """`null` for None, else the number with 17 significant digits (ints as
    they are); ValueError for NaN and the infinities."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        raise TypeError("bool is not a JSON number here")
    if not math.isfinite(x):
        raise ValueError("non-finite numbers cannot be serialized")
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def emit_json(value, indent: int = 0) -> str:
    """Serialize dict/list/str/number/bool/None with stable formatting.

    Dict key order is preserved (callers build dicts in the documented
    order), floats use 17 significant digits.
    """
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return json_number(float(value) if isinstance(value, np.floating) else value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(
            pad + "  " + emit_json(v, indent + 2) for v in value
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + encode_basestring_ascii(str(k)) + ": " + emit_json(v, indent + 2)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def manifest_to_json(manifest: ManifoldManifest) -> str:
    doc = {
        "id": manifest.id,
        "dim": manifest.dim,
        "structure_constants": manifest.structure_constants,
        "metric": manifest.metric,
        "J": manifest.J,
        "description": manifest.description,
    }
    return emit_json(doc) + "\n"


def save_manifest(manifest: ManifoldManifest, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(manifest_to_json(manifest), encoding="utf-8")
    return path


def _as_float_array(doc: dict, key: str, shape: tuple[int, ...]) -> NDArray:
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ManifestFormatError(f"field {key!r} is not a numeric array: {exc}")
    if arr.shape != shape:
        raise ManifestShapeError(
            f"field {key!r} has shape {arr.shape}, expected {shape}"
        )
    return arr


def parse_manifest(text: str) -> ManifoldManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestFormatError(f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise ManifestFormatError("manifest must be a JSON object")
    for key in ("id", "dim", "structure_constants", "metric", "J"):
        if key not in doc:
            raise ManifestFormatError(f"missing required field {key!r}")
    if not isinstance(doc["id"], str):
        raise ManifestFormatError("field 'id' must be a string")
    if not isinstance(doc["dim"], int) or isinstance(doc["dim"], bool):
        raise ManifestFormatError("field 'dim' must be an integer")
    dim = doc["dim"]
    if dim <= 0:
        raise ManifestFormatError(f"field 'dim' must be positive, got {dim}")
    C = _as_float_array(doc, "structure_constants", (dim, dim, dim))
    g = _as_float_array(doc, "metric", (dim, dim))
    J = _as_float_array(doc, "J", (dim, dim))
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise ManifestFormatError("field 'description' must be a string")
    return ManifoldManifest(
        id=doc["id"], dim=dim, structure_constants=C, metric=g, J=J,
        description=description,
    )


def load_manifest(path: str | Path) -> ManifoldManifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestNotFoundError(f"manifest file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_manifest(text)


def bundled_manifest_path(name: str) -> Path:
    """Path of a manifest shipped with the package (name without extension)."""
    here = Path(__file__).resolve().parent
    path = here / "data" / f"{name}.manifest"
    if not path.is_file():
        raise ManifestNotFoundError(f"no bundled manifest named {name!r}")
    return path
