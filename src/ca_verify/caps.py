"""Resource caps shared by table builders, deciders, and searches.

Every bound here fails loudly with CapExceeded instead of truncating a
search silently.  The defaults, DEFAULT_CAPS, suit desk-scale runs;
caps_from_env overrides fields of them from the environment variable
CA_VERIFY_CAPS, a comma-separated list of name=value pairs, e.g.

    CA_VERIFY_CAPS="subset_states=2097152,poly_search=65536"
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


class CapExceeded(RuntimeError):
    """A configured resource bound would be exceeded."""


@dataclass(frozen=True)
class Caps:
    table_entries: int = 1 << 24   # rule table size m**(d+1)
    subset_states: int = 1 << 20   # count vectors visited by the balance search
    pair_vertices: int = 1 << 24   # pair vertices reached by the diamond search; cycle search refused above m**(2d)
    poly_search: int = 1 << 20     # representability_search refused above m**(kempner(m)-2) tuples
    family_rules: int = 1 << 20    # rules enumerated by a single family run


DEFAULT_CAPS = Caps()

ENV_VAR = "CA_VERIFY_CAPS"

_FIELD_NAMES = tuple(f.name for f in fields(Caps))


def caps_from_env() -> Caps:
    """DEFAULT_CAPS with the CA_VERIFY_CAPS overrides (``name=value,...``).

    Unknown names and malformed values raise ValueError so that a typo in
    the environment cannot quietly loosen or tighten a bound.
    """
    text = os.environ.get(ENV_VAR, "").strip()
    if not text:
        return DEFAULT_CAPS
    overrides = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"{ENV_VAR}: expected name=value, got {item!r}")
        if name not in _FIELD_NAMES:
            raise ValueError(f"{ENV_VAR}: unknown cap {name!r}")
        try:
            parsed = int(value.strip(), 0)
        except ValueError:
            raise ValueError(f"{ENV_VAR}: bad integer for {name!r}: {value!r}") from None
        if parsed < 1:
            raise ValueError(f"{ENV_VAR}: cap {name!r} must be positive")
        overrides[name] = parsed
    return replace(DEFAULT_CAPS, **overrides)
