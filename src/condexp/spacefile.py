"""Reading and writing the JSON space-description format.

A space file bundles labels, a measure family, and named partitions:

    {
      "labels": ["00", "01", "10", "11"],
      "measures": [[0.25, 0.25, 0.25, 0.25]],
      "partitions": {"rows": [[0, 1], [2, 3]]}
    }

Indices are 0-based integers; overlapping or non-covering blocks are
rejected, naming the offending index.  One reader serves every file the
CLI reads: a missing, unreadable or non-UTF-8 file is a ``SpaceFormatError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .space import MeasureFamily, OutcomeSpace, Partition, StructuralError


class SpaceFormatError(StructuralError):
    """A space-description document is malformed."""


class OutputError(OSError):
    """A report or space file cannot be written: the one writer's failure."""


@dataclass(frozen=True)
class SpaceBundle:
    space: OutcomeSpace
    family: MeasureFamily
    partitions: dict[str, Partition]

    @property
    def n(self) -> int:
        return self.space.n

    def partition(self, name: str) -> Partition:
        try:
            return self.partitions[name]
        except KeyError:
            known = ", ".join(sorted(self.partitions)) or "(none)"
            raise SpaceFormatError(f"unknown partition {name!r}; file defines: {known}")


def parse_space_data(data) -> SpaceBundle:
    """Build a :class:`SpaceBundle` from decoded JSON, validating everything."""
    if not isinstance(data, dict):
        raise SpaceFormatError("space description must be a JSON object")
    for key in ("labels", "measures"):
        if key not in data:
            raise SpaceFormatError(f"missing required field {key!r}")
        if not isinstance(data[key], list):
            raise SpaceFormatError(f"field {key!r} must be a list")
    if not isinstance(data.get("partitions", {}), dict):
        raise SpaceFormatError("field 'partitions' must be an object")
    try:
        space = OutcomeSpace(data["labels"])
    except (StructuralError, TypeError) as exc:
        raise SpaceFormatError(f"bad 'labels': {exc}") from exc
    try:
        family = MeasureFamily(data["measures"])
    except (StructuralError, TypeError, ValueError) as exc:
        raise SpaceFormatError(f"bad 'measures': {exc}") from exc
    if family.n != space.n:
        raise SpaceFormatError(
            f"measure rows have {family.n} entries but there are {space.n} labels"
        )
    partitions: dict[str, Partition] = {}
    for name, blocks in (data.get("partitions") or {}).items():
        try:
            p = Partition(blocks)
        except (TypeError, ValueError) as exc:    # StructuralError is a ValueError
            raise SpaceFormatError(f"bad partition {name!r}: {exc}") from exc
        if p.n != space.n:
            raise SpaceFormatError(
                f"partition {name!r} covers {p.n} outcomes, expected {space.n}"
            )
        partitions[name] = p
    return SpaceBundle(space, family, partitions)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_space_file(path) -> SpaceBundle:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_space_data(data)


def space_file_dict(bundle: SpaceBundle) -> dict:
    return {
        "labels": list(bundle.space.labels),
        "measures": [list(map(float, row)) for row in bundle.family.weights],
        "partitions": {
            name: [list(b) for b in p.blocks] for name, p in bundle.partitions.items()
        },
    }


def write_space_file(bundle: SpaceBundle, path) -> None:
    _write_text(path, json.dumps(space_file_dict(bundle), indent=2) + "\n")
