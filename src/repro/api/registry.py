"""String-keyed plugin registries for the four experiment axes.

Every experiment of the paper picks one value per axis — an *architecture*,
a *workload*, a *scheduler* and an evaluation *platform* — and the public
API resolves each pick through a :class:`Registry`: a mapping from a stable
string key to a factory.  New backends plug in by registering a factory
(typically via the ``register_*`` decorators) and immediately become usable
from :func:`repro.api.run`, the CLI and spec files, without touching either.

Factory contracts per axis:

=============  ============================================================
architecture   ``factory() -> Accelerator``
workload       ``factory(batch=1) -> list[ProblemLayer]``
scheduler      ``factory(accelerator, **options) -> Scheduler`` (the
               engine protocol of :mod:`repro.engine.outcome`)
platform       ``factory(accelerator, metric="latency") ->
               Callable[[Mapping | None], float]`` (``inf`` = invalid)
problem        ``factory(batch=1, **dims) -> ProblemLayer | list[ProblemLayer]``
               (a tensor-problem template of
               :mod:`repro.workloads.problem`, parameterized by its
               dimension sizes)
fusion-group   ``factory(batch=1, **options) -> FusionGroup | FusionPlan``
               (a fused operator chain or whole-network fusion plan of
               :mod:`repro.fusion`, scheduled as one unit)
=============  ============================================================

Lookup failures raise a :class:`UnknownNameError` (a ``KeyError``) that
names the axis, suggests the closest registered key and lists what is
available; duplicate registrations raise :class:`DuplicateNameError` unless
``replace=True`` is passed explicitly.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Iterator


class DuplicateNameError(ValueError):
    """A name was registered twice without ``replace=True``."""


class UnknownNameError(KeyError):
    """A lookup key is not registered (message includes a suggestion)."""

    def __str__(self) -> str:  # KeyError would repr-quote the whole message
        return self.args[0]


class Registry:
    """One axis' name-to-factory mapping.

    Iteration and :meth:`available` preserve registration order, so the
    built-in entries appear in their canonical (paper) order and plugins
    follow in the order they were loaded.
    """

    def __init__(self, axis: str):
        self.axis = axis
        self._factories: dict[str, Callable[..., Any]] = {}
        self._descriptions: dict[str, str] = {}

    # ------------------------------------------------------------ registration
    def register(
        self,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        description: str = "",
        replace: bool = False,
    ):
        """Register ``factory`` under ``name`` (usable as a decorator).

        ``description`` defaults to the first line of the factory's
        docstring and is surfaced by ``repro registry``.
        """
        if factory is None:

            def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
                self.register(name, func, description=description, replace=replace)
                return func

            return decorator

        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.axis} name must be a non-empty string, got {name!r}")
        if not replace and name in self._factories:
            raise DuplicateNameError(
                f"{self.axis} {name!r} is already registered; pass replace=True to override"
            )
        self._factories[name] = factory
        doc = (factory.__doc__ or "").strip()
        self._descriptions[name] = description or (doc.splitlines()[0] if doc else "")
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for tests and plugin reloads)."""
        if name not in self._factories:
            raise UnknownNameError(self._unknown_message(name))
        del self._factories[name]
        del self._descriptions[name]

    # ------------------------------------------------------------------ lookup
    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``."""
        try:
            return self._factories[name]
        except KeyError:
            raise UnknownNameError(self._unknown_message(name)) from None

    def create(self, name: str, *args, **kwargs):
        """Invoke the factory registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def available(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._factories)

    def describe(self) -> dict[str, str]:
        """``{name: one-line description}`` for every registration."""
        return dict(self._descriptions)

    def _unknown_message(self, name) -> str:
        suggestion = ""
        if isinstance(name, str) and self._factories:
            close = difflib.get_close_matches(name, self._factories, n=1)
            if close:
                suggestion = f" — did you mean {close[0]!r}?"
        known = ", ".join(sorted(self._factories)) or "none registered"
        return f"unknown {self.axis} {name!r}{suggestion} (available: {known})"

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self.axis!r}, {list(self._factories)})"


#: The experiment axes.
schedulers = Registry("scheduler")
architectures = Registry("architecture")
platforms = Registry("platform")
workloads = Registry("workload")
problems = Registry("problem")
fusion_groups = Registry("fusion-group")


def register_scheduler(name: str, *, description: str = "", replace: bool = False):
    """Decorator registering a scheduler factory: ``f(accelerator, **options)``."""
    return schedulers.register(name, description=description, replace=replace)


def register_architecture(name: str, *, description: str = "", replace: bool = False):
    """Decorator registering an architecture factory: ``f() -> Accelerator``."""
    return architectures.register(name, description=description, replace=replace)


def register_platform(name: str, *, description: str = "", replace: bool = False):
    """Decorator registering a platform factory: ``f(accelerator, metric) -> evaluator``."""
    return platforms.register(name, description=description, replace=replace)


def register_workload(name: str, *, description: str = "", replace: bool = False):
    """Decorator registering a workload factory: ``f(batch=1) -> list[ProblemLayer]``."""
    return workloads.register(name, description=description, replace=replace)


def register_problem(name: str, *, description: str = "", replace: bool = False):
    """Decorator registering a problem factory: ``f(batch=1, **dims) -> layer(s)``."""
    return problems.register(name, description=description, replace=replace)


def register_fusion_group(name: str, *, description: str = "", replace: bool = False):
    """Decorator registering a fusion-group factory: ``f(batch=1, **options) -> group/plan``."""
    return fusion_groups.register(name, description=description, replace=replace)


#: All registries keyed by axis name (used by ``repro registry``).
ALL_REGISTRIES: dict[str, Registry] = {
    "schedulers": schedulers,
    "architectures": architectures,
    "platforms": platforms,
    "workloads": workloads,
    "problems": problems,
    "fusion_groups": fusion_groups,
}
