"""Component hierarchy.

Every architectural block of the virtual platform (host interface, bus,
controller, die, ...) derives from :class:`Component`.  Components form a
named tree — mirroring SystemC's module hierarchy — so span tracks and
error messages carry full hierarchical paths like ``ssd.chn3.way1.die0``.
Sibling names must be unique, which keeps those paths unique.

The tree holds references downward only: a parent keeps its children,
and a child keeps its dotted path as a string built once at
construction, not a reference to its parent.  A built device is then no
reference cycle, so a device whose run has drained is freed by reference
counting as soon as its last user drops it, without a collector pass.

A component declares its statistics in ``__init__``: each count a report
or a test reads is a plain int incremented in place, and a unit whose
busy time is reported holds one
:class:`~repro.kernel.stats.UtilizationTracker`.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Component:
    """A named node in the platform hierarchy.

    Subclasses register child components simply by constructing them with
    ``parent=self``.  The parent records the child in ``children``; the
    child stores only its path (the parent's path plus its own name), so
    no child refers back up the tree.
    """

    def __init__(self, sim: "Simulator", name: str,
                 parent: Optional["Component"] = None):
        if not name:
            raise ValueError("component name must be non-empty")
        if "." in name:
            raise ValueError(f"component name may not contain '.': {name!r}")
        self.sim = sim
        self.name = name
        self._path = name if parent is None else f"{parent._path}.{name}"
        self.children: Dict[str, "Component"] = {}
        if parent is not None:
            parent._add_child(self)

    def _add_child(self, child: "Component") -> None:
        if child.name in self.children:
            raise ValueError(
                f"duplicate child name {child.name!r} under {self.path()}")
        self.children[child.name] = child

    def path(self) -> str:
        """Full dotted path from the hierarchy root, stored at
        construction."""
        return self._path

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._path}>"
