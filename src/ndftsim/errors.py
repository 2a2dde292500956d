"""Exception types shared across the simulator, and the config field table."""

import math
from dataclasses import fields, is_dataclass
from functools import cache
from typing import Annotated, get_args, get_origin, get_type_hints

# A numeric config field declares its domain in its hint, as
# Annotated[<type>, "<op> <bound>"], and config_errors() checks it.  The
# shared domains:
PosInt = Annotated[int, ">= 1"]
NonNegInt = Annotated[int, ">= 0"]
PosFloat = Annotated[float, "> 0"]
NonNegFloat = Annotated[float, ">= 0"]

# A domain holds finite numbers only: nan and inf fail both comparisons.
_COMPARE = {">=": lambda x, bound: bound <= x < math.inf,
            ">": lambda x, bound: bound < x < math.inf}


class NdftError(Exception):
    """Base class for all simulator errors."""


class DomainError(NdftError, ValueError):
    """An argument is outside the operation's domain (negative AI, zero bytes, ...)."""


class ConfigurationError(NdftError, ValueError):
    """A config or fixture is missing or violates an invariant.

    ``key`` carries the dotted key path of the first offending field.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key

    @classmethod
    def from_diagnostic(cls, line: str) -> "ConfigurationError":
        """Error for one '<key>: <problem>' line of a validate() list."""
        key, sep, message = line.partition(": ")
        return cls(message, key=key) if sep else cls(line)


@cache
def doc_fields(cls) -> dict:
    """Document key (name or "doc_key") -> (field, hint, domain or None) per
    field of a config dataclass: one table for loader, dumper and checker.
    A dict field's domain is that of its values."""
    hints = get_type_hints(cls, include_extras=True)
    table = {}
    for f in fields(cls):
        hint = hints[f.name]
        domain = next((h.__metadata__[0] for h in (hint, *get_args(hint))
                       if get_origin(h) is Annotated), None)
        table[f.metadata.get("doc_key", f.name)] = (f, hint, domain)
    return table


def config_errors(value, key: str) -> list[str]:
    """Every '<key path>: <problem>' line of a config dataclass rooted at key.

    Each leaf outside the domain its hint declares gives '<key path>: must
    be <domain>', and so does each entry of a dict whose values declare
    one; nested dataclasses, and lists of them, are walked too.
    The checks that tie fields together stay with their class, as its
    ``relation_errors(key)``, and run after its fields.
    """
    bad = []
    for doc_key, (f, _, domain) in doc_fields(type(value)).items():
        item = getattr(value, f.name)
        path = f"{key}.{doc_key}" if key else doc_key
        if domain is not None:
            op, bound = domain.split()
            entries = ({f"{path}.{k}": v for k, v in item.items()}
                       if isinstance(item, dict) else {path: item})
            bad += [f"{p}: must be {domain}" for p, x in entries.items()
                    if x is not None and not _COMPARE[op](x, float(bound))]
        elif is_dataclass(item):
            bad += config_errors(item, path)
        elif isinstance(item, list):  # of dataclasses: the scenarios
            for i, element in enumerate(item):
                bad += config_errors(element, f"{path}[{i}]")
    relations = getattr(value, "relation_errors", None)
    return bad + relations(key) if relations else bad


class CapacityError(NdftError):
    """A placement or allocation does not fit in the target memory."""


class ScheduleError(NdftError):
    """A schedule does not cover the task graph it is simulated against."""


class RangeError(NdftError, ValueError):
    """Out-of-bounds access into a shared block."""


class LocalityError(NdftError):
    """Local access to a block owned by another stack without a cached copy."""


class UnknownBlockError(NdftError, KeyError):
    """Block id not present in the directory."""


class DataError(NdftError, ValueError):
    """Malformed pseudopotential data (index out of grid range, empty payload)."""
