"""Scalar and aggregate function registry for the Cypher subset.

Scalar functions receive already-evaluated argument values (Python
primitives, lists, maps, :class:`~repro.graph.model.Node` /
:class:`~repro.graph.model.Edge`).  Cypher null-propagation is applied here:
most functions return ``None`` when any required argument is ``None``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.cypher.errors import CypherTypeError, UnknownFunctionError
from repro.graph.model import Edge, Node

ScalarFunction = Callable[..., object]


def _require_string(name: str, value: object) -> str:
    if not isinstance(value, str):
        raise CypherTypeError(
            f"{name}() expects a string, got {type(value).__name__}"
        )
    return value


def _require_number(name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CypherTypeError(
            f"{name}() expects a number, got {type(value).__name__}"
        )
    return value


def _null_if_none(func: ScalarFunction) -> ScalarFunction:
    """Wrap ``func`` so that any None argument yields None."""

    def wrapper(*args: object) -> object:
        if any(arg is None for arg in args):
            return None
        return func(*args)

    return wrapper


# ----------------------------------------------------------------------
# scalar functions
# ----------------------------------------------------------------------
def _to_string(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return str(value)


def _to_integer(value: object) -> object:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        try:
            return int(float(value)) if "." in value else int(value)
        except ValueError:
            return None
    return None


def _to_float(value: object) -> object:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _to_boolean(value: object) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
    return None


def _size(value: object) -> object:
    if isinstance(value, (list, tuple, str, dict)):
        return len(value)
    raise CypherTypeError(
        f"size() expects a list or string, got {type(value).__name__}"
    )


def _labels(value: object) -> object:
    if isinstance(value, Node):
        return value.sorted_labels()
    raise CypherTypeError("labels() expects a node")


def _type(value: object) -> object:
    if isinstance(value, Edge):
        return value.label
    raise CypherTypeError("type() expects a relationship")


def _id(value: object) -> object:
    if isinstance(value, (Node, Edge)):
        return value.id
    raise CypherTypeError("id() expects a node or relationship")


def _keys(value: object) -> object:
    if isinstance(value, (Node, Edge)):
        return sorted(value.properties)
    if isinstance(value, dict):
        return sorted(value)
    raise CypherTypeError("keys() expects a node, relationship or map")


def _properties(value: object) -> object:
    if isinstance(value, (Node, Edge)):
        return dict(value.properties)
    if isinstance(value, dict):
        return dict(value)
    raise CypherTypeError("properties() expects a node, relationship or map")


def _head(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return value[0] if value else None
    raise CypherTypeError("head() expects a list")


def _last(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return value[-1] if value else None
    raise CypherTypeError("last() expects a list")


def _tail(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return list(value[1:])
    raise CypherTypeError("tail() expects a list")


def _reverse(value: object) -> object:
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, (list, tuple)):
        return list(value)[::-1]
    raise CypherTypeError("reverse() expects a string or list")


def _substring(value: object, start: object, length: object = None) -> object:
    text = _require_string("substring", value)
    begin = int(_require_number("substring", start))
    if length is None:
        return text[begin:]
    return text[begin:begin + int(_require_number("substring", length))]


def _range(start: object, end: object, step: object = 1) -> object:
    begin = int(_require_number("range", start))
    stop = int(_require_number("range", end))
    stride = int(_require_number("range", step))
    if stride == 0:
        raise CypherTypeError("range() step must not be zero")
    # Cypher's range end is inclusive
    offset = 1 if stride > 0 else -1
    return list(range(begin, stop + offset, stride))


def _round(value: object, precision: object = 0) -> object:
    number = _require_number("round", value)
    digits = int(_require_number("round", precision))
    result = round(number, digits)
    return result if digits else float(math.floor(number + 0.5))


SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {
    "tostring": _null_if_none(_to_string),
    "tointeger": _null_if_none(_to_integer),
    "toint": _null_if_none(_to_integer),
    "tofloat": _null_if_none(_to_float),
    "toboolean": _null_if_none(_to_boolean),
    "size": _null_if_none(_size),
    "length": _null_if_none(_size),
    "labels": _null_if_none(_labels),
    "type": _null_if_none(_type),
    "id": _null_if_none(_id),
    "keys": _null_if_none(_keys),
    "properties": _null_if_none(_properties),
    "head": _null_if_none(_head),
    "last": _null_if_none(_last),
    "tail": _null_if_none(_tail),
    "reverse": _null_if_none(_reverse),
    "toupper": _null_if_none(lambda v: _require_string("toUpper", v).upper()),
    "tolower": _null_if_none(lambda v: _require_string("toLower", v).lower()),
    "upper": _null_if_none(lambda v: _require_string("upper", v).upper()),
    "lower": _null_if_none(lambda v: _require_string("lower", v).lower()),
    "trim": _null_if_none(lambda v: _require_string("trim", v).strip()),
    "ltrim": _null_if_none(lambda v: _require_string("ltrim", v).lstrip()),
    "rtrim": _null_if_none(lambda v: _require_string("rtrim", v).rstrip()),
    "replace": _null_if_none(
        lambda v, old, new: _require_string("replace", v).replace(
            _require_string("replace", old), _require_string("replace", new)
        )
    ),
    "split": _null_if_none(
        lambda v, sep: _require_string("split", v).split(
            _require_string("split", sep)
        )
    ),
    "substring": _null_if_none(_substring),
    "left": _null_if_none(
        lambda v, n: _require_string("left", v)[: int(_require_number("left", n))]
    ),
    "right": _null_if_none(
        lambda v, n: _require_string("right", v)[-int(_require_number("right", n)):]
    ),
    "abs": _null_if_none(lambda v: abs(_require_number("abs", v))),
    "ceil": _null_if_none(lambda v: float(math.ceil(_require_number("ceil", v)))),
    "floor": _null_if_none(lambda v: float(math.floor(_require_number("floor", v)))),
    "round": _null_if_none(_round),
    "sign": _null_if_none(
        lambda v: 0 if _require_number("sign", v) == 0
        else (1 if _require_number("sign", v) > 0 else -1)
    ),
    "sqrt": _null_if_none(lambda v: math.sqrt(_require_number("sqrt", v))),
    "exp": _null_if_none(lambda v: math.exp(_require_number("exp", v))),
    "log": _null_if_none(lambda v: math.log(_require_number("log", v))),
    "log10": _null_if_none(lambda v: math.log10(_require_number("log10", v))),
    "range": _range,  # range() has no null-propagating args in practice
}


def _coalesce(*args: object) -> object:
    for arg in args:
        if arg is not None:
            return arg
    return None


SCALAR_FUNCTIONS["coalesce"] = _coalesce


# ----------------------------------------------------------------------
# aggregate functions
# ----------------------------------------------------------------------
AGGREGATE_FUNCTION_NAMES = frozenset({
    "count", "collect", "sum", "avg", "min", "max", "stdev", "stdevp",
    "percentilecont", "percentiledisc",
})


def _numeric_values(name: str, values: Sequence[object]) -> list[float]:
    numbers = []
    for value in values:
        if value is None:
            continue
        numbers.append(_require_number(name, value))
    return numbers


def aggregate(name: str, values: Sequence[object], distinct: bool) -> object:
    """Apply aggregate ``name`` to ``values`` (nulls already meaningful).

    ``values`` excludes rows where the argument evaluated to ``None`` for
    ``count(expr)`` semantics; callers pass the raw list and we drop nulls
    here to keep the semantics in one place.
    """
    non_null = [value for value in values if value is not None]
    if distinct:
        seen: list[object] = []
        for value in non_null:
            if value not in seen:
                seen.append(value)
        non_null = seen

    if name == "count":
        return len(non_null)
    if name == "collect":
        return list(non_null)
    if name == "sum":
        return sum(_numeric_values("sum", non_null)) if non_null else 0
    if name == "avg":
        numbers = _numeric_values("avg", non_null)
        return sum(numbers) / len(numbers) if numbers else None
    if name == "min":
        return min(non_null, default=None)
    if name == "max":
        return max(non_null, default=None)
    if name in ("stdev", "stdevp"):
        numbers = _numeric_values(name, non_null)
        if len(numbers) < 2:
            return 0.0
        mean = sum(numbers) / len(numbers)
        divisor = len(numbers) - (1 if name == "stdev" else 0)
        return math.sqrt(sum((n - mean) ** 2 for n in numbers) / divisor)
    if name in ("percentilecont", "percentiledisc"):
        raise UnknownFunctionError(name)
    raise UnknownFunctionError(name)


def is_aggregate(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTION_NAMES


def call_scalar(name: str, args: Sequence[object]) -> object:
    """Invoke scalar function ``name`` with evaluated ``args``."""
    func = SCALAR_FUNCTIONS.get(name.lower())
    if func is None:
        raise UnknownFunctionError(name)
    return func(*args)
