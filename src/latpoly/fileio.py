"""JSON serialization of polytopes: exact, self-describing, round-trip safe.

Integers of magnitude at least 2**53 are written as decimal strings so that
readers without big-number support cannot silently lose precision; readers
here accept both forms everywhere.  Rationals are written as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import InvalidPolytope
from .polytope import (
    HPolytope,
    VPolytope,
    canonicalize,
    contains,
    facets,
    hpolytope,
    reduce_vertices,
    vertices,
)

FORMAT = "latpoly/1"
REPORT_FORMAT = "latpoly-report/1"
BATCH_FORMAT = "latpoly-batch/1"

_BIG = 2**53


def encode_int(x: int):
    if -_BIG < x < _BIG:
        return x
    try:
        return str(x)
    except ValueError:  # past Python's limit on decimal digits, 4300 by default
        bits = x.bit_length()
        raise InvalidPolytope(f"an integer of {bits} bits has too many digits to write") from None


# Longest literal an error line quotes; a longer one is named by its length.
_QUOTED = 40


def _literal(value: str) -> str:
    return repr(value) if len(value) <= _QUOTED else f"of {len(value)} characters"


def decode_int(value) -> int:
    if isinstance(value, bool):
        raise InvalidPolytope(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise InvalidPolytope(f"bad integer literal {_literal(value)}") from None
    raise InvalidPolytope(f"expected an integer, got {value!r}")


def encode_rational(x):
    f = Fraction(x)
    if f.denominator == 1:
        return encode_int(int(f))
    return f"{f.numerator}/{f.denominator}"


def decode_rational(value):
    if isinstance(value, bool):
        raise InvalidPolytope(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidPolytope(f"bad rational literal {_literal(value)}") from None
        return int(f) if f.denominator == 1 else f
    raise InvalidPolytope(f"expected a rational, got {value!r}")


class LoadedPolytope(NamedTuple):
    """A polytope read from disk, with lazily derived presentations."""

    dim: int
    hrep: HPolytope | None
    vrep: VPolytope | None

    def need_v(self) -> VPolytope:
        if self.vrep is not None:
            return self.vrep
        return vertices(self.hrep)

    def need_h(self) -> HPolytope:
        if self.hrep is not None:
            return self.hrep
        return facets(self.vrep)


def polytope_payload(hrep: HPolytope | None = None, vrep: VPolytope | None = None) -> dict:
    if hrep is None and vrep is None:
        raise ValueError("need at least one presentation")
    dim = hrep.dim if hrep is not None else vrep.dim
    payload = {"format": FORMAT, "dim": dim}
    if hrep is not None:
        payload["hrep"] = {
            "normals": [[encode_int(c) for c in normal] for normal, _ in hrep.facets],
            "offsets": [encode_rational(offset) for _, offset in hrep.facets],
        }
    if vrep is not None:
        payload["vrep"] = {
            "vertices": [[encode_int(c) for c in v] for v in vrep.vertices]
        }
    return payload


def save_polytope(path, hrep: HPolytope | None = None, vrep: VPolytope | None = None) -> None:
    Path(path).write_text(json.dumps(polytope_payload(hrep, vrep), indent=2) + "\n")


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidPolytope(f"{what} must be a JSON array, got {value!r}")
    return value


def _block_array(payload: dict, block: str, key: str) -> list:
    part = payload[block]
    if not isinstance(part, dict):
        raise InvalidPolytope(f"{block} must be a JSON object, got {part!r}")
    return _array(part.get(key), f"{block}.{key}")


def parse_polytope(payload: dict) -> LoadedPolytope:
    """Validate a decoded polytope file; raises only InvalidPolytope.

    When both presentations are given, every listed point must satisfy the
    hrep and every vertex of the hrep must be listed; the vrep kept is then
    the vertex set of the hrep, and non-extreme listed points are dropped.
    """
    if not isinstance(payload, dict):
        raise InvalidPolytope("polytope file must hold a JSON object")
    if payload.get("format") != FORMAT:
        raise InvalidPolytope(f"unsupported format tag {payload.get('format')!r}")
    dim = decode_int(payload.get("dim"))
    if dim < 0:
        raise InvalidPolytope("dimension must be nonnegative")
    hrep = None
    pts = None
    if "hrep" in payload:
        normals = [
            [decode_int(c) for c in _array(row, "a normal")]
            for row in _block_array(payload, "hrep", "normals")
        ]
        offsets = [decode_rational(x) for x in _block_array(payload, "hrep", "offsets")]
        if any(len(row) != dim for row in normals):
            raise InvalidPolytope("normal length does not match the dimension")
        try:
            raw = hpolytope(normals, offsets)
        except ValueError as err:
            raise InvalidPolytope(str(err)) from None
        hrep = canonicalize(raw)
    if "vrep" in payload:
        pts = [
            tuple(decode_int(c) for c in _array(row, "a vertex"))
            for row in _block_array(payload, "vrep", "vertices")
        ]
        if any(len(p) != dim for p in pts) or not pts:
            raise InvalidPolytope("vertex length does not match the dimension")
    if hrep is None and pts is None:
        raise InvalidPolytope("polytope file needs an hrep or a vrep block")
    if hrep is None:
        return LoadedPolytope(dim, None, reduce_vertices(pts, dim))
    if pts is None:
        return LoadedPolytope(dim, hrep, None)
    vrep = vertices(hrep)
    if not all(contains(hrep, p) for p in pts) or not set(vrep.vertices) <= set(pts):
        raise InvalidPolytope("hrep and vrep describe different polytopes")
    return LoadedPolytope(dim, hrep, vrep)


def load_polytope(path) -> LoadedPolytope:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidPolytope(f"cannot read {path}: {err}") from None
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError: malformed JSON, or an integer literal past Python's
        # digit limit; RecursionError: arrays or objects nested too deeply.
        raise InvalidPolytope(f"{path} is not valid JSON: {err}") from None
    return parse_polytope(payload)
