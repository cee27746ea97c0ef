"""The dataset registry of the DuckDB and Spark connectors (DESIGN.md §2).

The paper's connector contract only verifies a dataset; these connectors
also store one. :class:`RegistryConnector` decides for both which datasets a
backend holds, what an alias reads and when a name is refused.
"""
from __future__ import annotations

import weakref
from abc import abstractmethod

from repro.core.connector import DatasetNotRegistered, DBConnector
from repro.core.rewrite import RewriteRules

#: store (a Spark session or ``duckdb`` connection) -> its registry, which
#: every connector on it shares: each dataset's name in lower case, as both
#: backends match names, -> ``(namespace, collection, root)``: the dataset as
#: given, and the name of the stored dataset it reads if an alias, else ``None``.
_REGISTRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class RegistryConnector(DBConnector):
    """A connector that stores datasets in ``store`` and keeps its registry.

    An alias records the stored dataset its target reads, never an alias, so
    an alias of an alias reads the first one's root, and a re-point is one
    pass. A name that another dataset holds raises ``ValueError``.
    """

    def __init__(self, store: object, rules: RewriteRules | None = None):
        super().__init__(rules)
        self._held: dict[str, tuple[str, str, str | None]] = _REGISTRIES.setdefault(store, {})

    def register(self, namespace: str, collection: str, data) -> None:
        """Store a copy of a pandas (or Spark) DataFrame as
        ``namespace.collection``; its aliases read the copy, in its rows and
        columns. On an alias's name, it detaches the alias."""
        self._store(namespace, self._checked_name(namespace, collection), data)
        self._hold(namespace, collection, None)

    def alias(self, namespace: str, collection: str, target: str) -> None:
        """Make ``namespace.collection`` a second name, storing nothing, of
        the stored dataset the registered ``namespace.target`` reads. The
        aliases of ``collection`` move with it."""
        self.initialize(namespace, target)
        name, source = self._checked_name(namespace, collection), self._name(namespace, target)
        root = self._held[source.lower()][2] or source
        if root.lower() == name.lower():
            raise ValueError(f"{namespace}.{collection} cannot alias itself")
        self._link(name, root)
        self._hold(namespace, collection, root)

    def _hold(self, namespace: str, collection: str, root: str | None) -> None:
        """Record ``namespace.collection`` as an alias of ``root`` (``None``:
        stored), and link each alias of it to what it reads now."""
        name = self._name(namespace, collection)
        self._held[name.lower()] = (namespace, collection, root)
        for key, (ns, coll, of) in list(self._held.items()):
            if of is not None and of.lower() == name.lower():
                self._link(self._name(ns, coll), root or name)
                self._held[key] = (ns, coll, root or name)

    def initialize(self, namespace: str, collection: str) -> None:
        """Verify ``namespace.collection`` from the registry, asking the
        backend only for a name it does not hold, such as one made in the
        backend directly; a hit is then held. A held dataset dropped in the
        backend directly is noticed at its first action."""
        name = self._checked_name(namespace, collection)
        if name.lower() not in self._held:
            if not self._exists(name):
                raise DatasetNotRegistered(f"{namespace}.{collection}")
            self._held[name.lower()] = (namespace, collection, None)

    def _checked_name(self, namespace: str, collection: str) -> str:
        """The name of ``namespace.collection``; ``ValueError`` if another
        dataset holds it."""
        name = self._name(namespace, collection)
        held_ns, held, _ = self._held.get(name.lower(), (namespace, collection, None))
        # the two names match, so the datasets do when their namespaces do
        if held_ns.lower() != namespace.lower():
            raise ValueError(f"{namespace}.{collection}: {held_ns}.{held} holds view {name!r}")
        return name

    # -- the four hooks a backend supplies
    @abstractmethod
    def _name(self, namespace: str, collection: str) -> str:
        """The backend's name of ``namespace.collection``."""

    @abstractmethod
    def _store(self, namespace: str, name: str, data) -> None:
        """Store a copy of ``data`` under ``name``, replacing what it holds."""

    @abstractmethod
    def _link(self, name: str, root: str) -> None:
        """Make ``name`` read the stored dataset ``root``, storing nothing."""

    @abstractmethod
    def _exists(self, name: str) -> bool:
        """Whether the backend has ``name``."""
