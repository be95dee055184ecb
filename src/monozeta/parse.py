"""Text form of a monomial ideal.

Generators are monomials separated by commas (or newlines):

    x^2*y, y^3, x*z

A monomial is a product of powers ``name`` or ``name^k``; the ``*`` between
factors may be omitted when whitespace separates them.  Variable names are
whole identifiers, so ``xy`` is one variable named "xy", not x times y.
Unknown names are an error when an explicit variable list is supplied;
otherwise the variables are inferred and ordered naturally (x2 before x10).
"""

from __future__ import annotations

import re

from .polyhedra import MonomialIdeal


class ParseError(ValueError):
    """Syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# the interpreter's default int-to-str limit, which the CLI lifts for its
# output: reading an exponent takes time quadratic in its length
_MAX_EXPONENT_DIGITS = 4300

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"(?P<name>{_NAME})|(?P<int>\d+)|(?P<op>[\^*,])|(?P<ws>[ \t]+)")


def _tokens(text: str):
    """Yield (kind, value, line, column); newlines come out as ',' ops."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup
            if kind != "ws":
                yield kind, m.group(), lineno, pos + 1
            pos = m.end()
        yield "op", ",", lineno, len(line) + 1
    yield "end", "", lineno + 1, 1


def _natural_key(name: str):
    return tuple(
        int(part) if part.isdigit() else part for part in re.split(r"(\d+)", name)
    )


def parse_ideal(
    text: str, variables: tuple[str, ...] | None = None
) -> tuple[MonomialIdeal, tuple[str, ...]]:
    """Parse a comma or newline separated list of monomials.

    Returns the ideal and the variable order used for exponent vectors.
    An explicit variable list must hold distinct identifiers.
    """
    for i, name in enumerate(variables or ()):
        if not re.fullmatch(_NAME, name):
            raise ValueError(f"variable name {name!r} is not an identifier")
        if name in variables[:i]:
            raise ValueError(f"variable {name!r} is listed twice")
    monomials: list[dict[str, int]] = []
    current: dict[str, int] | None = None
    known = None if variables is None else set(variables)
    expecting_exponent = False
    star_at = None
    pending_name = None

    for kind, value, line, col in _tokens(text):
        if expecting_exponent:
            if kind != "int":
                raise ParseError("expected an integer exponent after '^'", line, col)
            if len(value) > _MAX_EXPONENT_DIGITS:
                raise ParseError(f"an exponent of {len(value)} digits; the limit "
                                 f"is {_MAX_EXPONENT_DIGITS}", line, col)
            current[pending_name] += int(value) - 1
            expecting_exponent = False
            pending_name = None
            continue
        if kind == "name":
            if known is not None and value not in known:
                raise ParseError(f"unknown variable {value!r}", line, col)
            if current is None:
                current = {}
            current[value] = current.get(value, 0) + 1
            pending_name = value
            star_at = None
        elif kind == "op" and value == "^":
            if pending_name is None:
                raise ParseError("'^' must follow a variable", line, col)
            expecting_exponent = True
        elif kind == "op" and value == "*":
            if current is None or star_at is not None:
                raise ParseError("'*' must join two factors", line, col)
            star_at = (line, col)
            pending_name = None
        elif kind == "op" and value == ",":
            if star_at is not None:
                raise ParseError("'*' must join two factors", *star_at)
            if current is not None:
                monomials.append(current)
                current = None
            pending_name = None
        elif kind == "int":
            # a bare "1" is the unit monomial; other constants are rejected
            if value != "1":
                raise ParseError("integers may only appear as exponents", line, col)
            if current is None:
                current = {}
            pending_name = None
            star_at = None
        else:  # end
            if star_at is not None:
                raise ParseError("'*' must join two factors", *star_at)
            if current is not None:
                monomials.append(current)

    if not monomials:
        raise ParseError("no generators found", 1, 1)

    if variables is None:
        seen = {name for m in monomials for name in m}
        order = tuple(sorted(seen, key=_natural_key)) or ("x",)
    else:
        order = tuple(variables)
    gens = [tuple(m.get(name, 0) for name in order) for m in monomials]
    return MonomialIdeal(len(order), gens), order
