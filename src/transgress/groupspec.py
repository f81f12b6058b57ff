"""Parsing of group spec strings.

Grammar: `<FAMILY><RANK>` optionally followed by `:sc`, `:adj`, or
`:pi1=[v1;v2;...]` where each v is a comma-separated integer vector in
fundamental-weight coordinates, each entry ASCII digits with an optional
sign and spaces around it.  No suffix means simply connected.
lattices.group_spec decides the form that canonical_spec_string prints:
`:adj` whenever pi1 is the whole center, so `A1:pi1=[1]` reads `A1:adj`,
and otherwise the minimal generators of the subgroup, so that every
spelling of one subgroup prints alike: `A5:pi1=[0,1,0,0,0]` and
`A5:pi1=[0,0,0,0,4]` both read `A5:pi1=[0,0,0,0,2]`.
"""

from __future__ import annotations

import re

from . import lattices, rootdata
from .lattices import GroupSpec


class GroupSpecParseError(ValueError):
    """Invalid spec string; `position` is the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


_HEAD = re.compile(r"([A-G])([0-9]+)")
_PI1 = re.compile(r":pi1=\[(.*)\]")
_INT = r" *[+-]?[0-9]+ *"  # compiled on first use, not at import


def parse_group_spec(text: str) -> GroupSpec:
    m = _HEAD.match(text)
    if not m:
        raise GroupSpecParseError(
            f"expected a family letter A-G followed by a rank, got {text!r}", 0
        )
    try:
        lie_type = rootdata.LieType(m.group(1), int(m.group(2)))
    except ValueError as exc:
        raise GroupSpecParseError(str(exc), 1) from exc
    rs = rootdata.build_root_system(lie_type)
    rest = text[m.end() :]
    if rest in ("", ":sc"):
        return lattices.group_spec(rs, ())
    if rest == ":adj":
        return lattices.adjoint_spec(rs)
    pm = _PI1.fullmatch(rest)
    if pm:
        generators = []
        body = pm.group(1)
        if body.strip(" "):
            offset = m.end() + pm.start(1)
            for chunk in body.split(";"):
                entries = chunk.split(",")
                # ASCII digits only: int() also reads 1_0 and other scripts' digits.
                if not all(re.fullmatch(_INT, x) for x in entries):
                    raise GroupSpecParseError(f"bad integer vector {chunk!r}", offset)
                vec = tuple(map(int, entries))
                if len(vec) != lie_type.rank:
                    raise GroupSpecParseError(
                        f"generator {chunk!r} has length {len(vec)}, "
                        f"expected rank {lie_type.rank}",
                        offset,
                    )
                generators.append(vec)
                offset += len(chunk) + 1
        return lattices.group_spec(rs, generators)
    raise GroupSpecParseError(
        f"expected ':sc', ':adj' or ':pi1=[...]', got {rest!r}", m.end()
    )


def canonical_spec_string(g: GroupSpec) -> str:
    return f"{g.root_system.lie_type}:{g.form}"
