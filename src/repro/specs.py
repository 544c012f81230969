"""The one codec for plain-data specs.

A spec is a JSON-able ``{"kind": name, **arguments}`` dict: ``name`` picks
a constructor from its family's ``KINDS`` table and the other keys are that
constructor's keyword arguments.  Specs stay plain data so tasks remain
picklable and cache-keyable; :func:`build` is the only place that turns one
into an object.  The tables live next to the classes they name:

* graphs — :data:`repro.apps.graphs.KINDS`
* quorum systems — :data:`repro.quorum.KINDS`
* delays — :data:`repro.sim.delays.KINDS`
* fault schedules — :data:`repro.sim.failures.KINDS`
* membership schedules — :data:`repro.membership.schedule.KINDS`
* arrivals — :data:`repro.sim.arrivals.KINDS`
* adversaries — :data:`repro.adversary.strategies.KINDS`
* broken clients — :data:`repro.chaos.broken.KINDS`

The retry spec has no kind: it is :class:`repro.registers.client.RetryPolicy`'s
arguments alone.  This module imports nothing from the package.
"""

import inspect
from functools import lru_cache
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple, Union

Factory = Callable[..., Any]


class SpecError(ValueError):
    """A malformed spec; the message names the family, the kind and the key."""


@lru_cache(maxsize=None)
def _parameters(factory: Factory) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(required, accepted) keyword parameters of ``factory``."""
    params = [
        param for param in inspect.signature(factory).parameters.values()
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    ]
    required = frozenset(
        param.name for param in params if param.default is param.empty
    )
    return required, frozenset(param.name for param in params)


def arguments(
    where: str,
    factory: Factory,
    spec: Any,
    context: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """``spec``'s keys checked against ``factory``'s parameters.

    Each ``context`` entry fills the parameter of its name when ``factory``
    takes one and ``spec`` leaves it out.  Raises :class:`SpecError`,
    prefixed ``where``, on a non-dict spec, an unknown key or a missing
    required one.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"{where} must be a dict, got {spec!r}")
    required, accepted = _parameters(factory)
    unknown = sorted(set(spec) - accepted)
    if unknown:
        raise SpecError(
            f"{where}: unknown key {', '.join(map(repr, unknown))} "
            f"(takes {', '.join(sorted(accepted))})"
        )
    args = {
        name: value for name, value in (context or {}).items()
        if name in accepted and name not in spec
    }
    args.update(spec)
    missing = sorted(required - set(args))
    if missing:
        raise SpecError(
            f"{where}: missing key {', '.join(map(repr, missing))}"
        )
    return args


def build(
    family: str,
    kinds: Union[Mapping[str, Factory], Factory],
    spec: Any,
    **context: Any,
) -> Any:
    """The object ``spec`` describes.

    ``kinds`` is the family's ``KINDS`` table; a kind-less family passes
    its one constructor instead.  ``context`` holds run-level values
    (``num_servers``, ``horizon``) for the constructors that take them.
    Raises :class:`SpecError` on an unknown kind, a key the constructor
    does not take or a required one missing, and re-raises the
    constructor's own ValueError as one, with the same prefix.
    """
    where = f"{family} spec"
    factory = kinds
    if isinstance(kinds, Mapping):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise SpecError(f"{where} must be a dict with a 'kind', got {spec!r}")
        spec = dict(spec)
        kind = spec.pop("kind")
        factory = kinds.get(kind) if isinstance(kind, str) else None
        if factory is None:
            raise SpecError(
                f"{where}: unknown kind {kind!r} "
                f"(known: {', '.join(sorted(kinds))})"
            )
        where = f"{where} {kind!r}"
    args = arguments(where, factory, spec, context)
    try:
        return factory(**args)
    except ValueError as error:
        raise SpecError(f"{where}: {error}") from None
