"""Component hierarchy.

Every architectural block of the virtual platform (host interface, bus,
controller, die, ...) derives from :class:`Component`.  Components form a
named tree — mirroring SystemC's module hierarchy — so span tracks and
error messages carry full hierarchical paths like ``ssd.chn3.way1.die0``.
Sibling names must be unique, which keeps those paths unique.

A component declares its statistics in ``__init__``: each count a report
or a test reads is a plain int incremented in place, and a unit whose
busy time is reported holds one
:class:`~repro.kernel.stats.UtilizationTracker`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Component:
    """A named node in the platform hierarchy.

    Subclasses register child components simply by constructing them with
    ``parent=self``.
    """

    def __init__(self, sim: "Simulator", name: str,
                 parent: Optional["Component"] = None):
        if not name:
            raise ValueError("component name must be non-empty")
        if "." in name:
            raise ValueError(f"component name may not contain '.': {name!r}")
        self.sim = sim
        self.name = name
        self.parent = parent
        self.children: Dict[str, "Component"] = {}
        if parent is not None:
            parent._add_child(self)

    def _add_child(self, child: "Component") -> None:
        if child.name in self.children:
            raise ValueError(
                f"duplicate child name {child.name!r} under {self.path()}")
        self.children[child.name] = child

    def path(self) -> str:
        """Full dotted path from the hierarchy root."""
        parts: List[str] = []
        node: Optional[Component] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return ".".join(reversed(parts))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.path()}>"
