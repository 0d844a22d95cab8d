"""Shared name normalization and alias resolution."""

from __future__ import annotations

from .graph import strongly_connected


def normalize_name(name: str) -> str:
    """Case-fold, trim, and collapse each run of whitespace to one space.

    `str.split()` with no argument uses the same Unicode whitespace test as
    `str.strip()` and the `\\s` of `re`, without the cost of a regex.
    """
    return " ".join(name.split()).casefold()


def compile_aliases(aliases: dict[str, str] | None) -> dict[str, str]:
    """Normalize a manifest alias table once and map every key to its fixpoint.

    Chains (a -> b, b -> c) are followed to their end. A chain that runs
    into a cycle stops at the last distinct name seen from its start: the
    cycle member just before the one the chain entered by. One pass over
    the strongly connected components of the alias graph, sinks first,
    gives both, so no key is walked twice. Stages compile the table on
    entry and pass the result to `canonical_key`.
    """
    table = {normalize_name(k): normalize_name(v) for k, v in (aliases or {}).items()}
    compiled: dict[str, str] = {}
    for component in strongly_connected({k: [v] if v in table else [] for k, v in table.items()}):
        first = component[0]
        if len(component) > 1 or table[first] == first:
            # a cycle: each member maps to the member that names it
            for name in component:
                compiled[table[name]] = name
        else:
            target = table[first]
            compiled[first] = compiled.get(target, target)
    return compiled


def canonical_key(name: str, table: dict[str, str] | None = None) -> str:
    """The canonical form of a name: normalized, then looked up in a table
    built by `compile_aliases`. Names the table does not list map to their
    normalized form."""
    key = normalize_name(name)
    return table.get(key, key) if table else key
