"""Shared name normalization and alias resolution."""

from __future__ import annotations

import re

_WS = re.compile(r"\s+")


def normalize_name(name: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return _WS.sub(" ", name.strip()).casefold()


def compile_aliases(aliases: dict[str, str] | None) -> dict[str, str]:
    """Normalize a manifest alias table once and map every key to its fixpoint.

    Chains (a -> b, b -> c) are followed to their end. A chain that runs
    into a cycle stops at the last distinct name seen from its start: the
    cycle member just before the one the chain entered by. Each key is
    walked once, so compiling is linear in the size of the table. Stages
    compile the table on entry and pass the result to `canonical_key`.
    """
    table = {normalize_name(k): normalize_name(v) for k, v in (aliases or {}).items()}
    compiled: dict[str, str] = {}
    for start in table:
        path: list[str] = []
        position: dict[str, int] = {}
        key = start
        while key in table and key not in compiled and key not in position:
            position[key] = len(path)
            path.append(key)
            key = table[key]
        if key in position:
            # the walk closed a cycle: path[entry:] are its members in order
            entry, last = position[key], path[-1]
            for i in range(entry, len(path)):
                compiled[path[i]] = path[i - 1] if i > entry else last
            del path[entry:]
            result = last
        else:
            result = compiled.get(key, key)
        for name in path:
            compiled[name] = result
    return compiled


def canonical_key(name: str, table: dict[str, str] | None = None) -> str:
    """The canonical form of a name: normalized, then looked up in a table
    built by `compile_aliases`. Names the table does not list map to their
    normalized form."""
    key = normalize_name(name)
    return table.get(key, key) if table else key


def resolve_alias(name: str, aliases: dict[str, str] | None) -> str:
    """Map one name through a raw manifest alias table to its canonical form.

    Compiles the table for this one lookup; code that resolves many names
    compiles once with `compile_aliases` and calls `canonical_key`.
    """
    return canonical_key(name, compile_aliases(aliases))
