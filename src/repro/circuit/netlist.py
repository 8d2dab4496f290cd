"""The :class:`Circuit` container.

A circuit is an ordered collection of uniquely named elements plus a little
bookkeeping (title, designated output probe).  Elements are immutable, so
"editing" a circuit always means replacing elements — which makes clones
cheap and makes fault injection / DFT emulation side-effect free.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from ..errors import CircuitError
from .components import (
    Capacitor,
    CurrentSource,
    Element,
    GROUND,
    Inductor,
    Resistor,
    TwoTerminal,
    VoltageSource,
)
from .opamp import Follower, OpAmp


class Circuit:
    """An analog circuit described as a bag of named elements.

    Parameters
    ----------
    title:
        Human-readable circuit name, used in reports and netlists.
    output:
        Name of the node whose voltage is the measured test parameter
        ``T(ω)`` (can also be given later or overridden per analysis).
    """

    def __init__(self, title: str = "untitled", output: Optional[str] = None):
        self.title = title
        self.output = output
        self._elements: Dict[str, Element] = {}

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise CircuitError(
                f"{self.title}: no element named {name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"Circuit({self.title!r}, {len(self)} elements)"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``; its name must be unique within the circuit."""
        if element.name in self._elements:
            raise CircuitError(
                f"{self.title}: duplicate element name {element.name!r}"
            )
        self._elements[element.name] = element
        return element

    def add_all(self, elements: Iterable[Element]) -> None:
        for element in elements:
            self.add(element)

    def remove(self, name: str) -> Element:
        """Remove and return the element called ``name``."""
        if name not in self._elements:
            raise CircuitError(f"{self.title}: no element named {name!r}")
        return self._elements.pop(name)

    def replace(self, name: str, element: Element) -> None:
        """Swap the element called ``name`` for ``element`` (same slot).

        The replacement may carry a different name; insertion order is
        preserved so netlists stay stable.
        """
        if name not in self._elements:
            raise CircuitError(f"{self.title}: no element named {name!r}")
        items: List[Element] = []
        for existing in self._elements.values():
            items.append(element if existing.name == name else existing)
        self._elements = {}
        for item in items:
            if item.name in self._elements:
                raise CircuitError(
                    f"{self.title}: duplicate element name {item.name!r} "
                    "after replacement"
                )
            self._elements[item.name] = item

    # -- convenience builders ------------------------------------------
    def resistor(self, name: str, n1: str, n2: str, value: float) -> Resistor:
        return self.add(Resistor(name, n1, n2, float(value)))

    def capacitor(self, name: str, n1: str, n2: str, value: float) -> Capacitor:
        return self.add(Capacitor(name, n1, n2, float(value)))

    def inductor(self, name: str, n1: str, n2: str, value: float) -> Inductor:
        return self.add(Inductor(name, n1, n2, float(value)))

    def voltage_source(
        self, name: str, np: str, nn: str = GROUND, ac: complex = 1.0
    ) -> VoltageSource:
        return self.add(VoltageSource(name, np, nn, ac))

    def current_source(
        self, name: str, np: str, nn: str = GROUND, ac: complex = 1.0
    ) -> CurrentSource:
        return self.add(CurrentSource(name, np, nn, ac))

    def opamp(self, name: str, inp: str, inn: str, out: str, model=None) -> OpAmp:
        if model is None:
            element = OpAmp(name, inp, inn, out)
        else:
            element = OpAmp(name, inp, inn, out, model)
        self.add(element)
        return element

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def elements(self) -> List[Element]:
        """Elements in insertion order."""
        return list(self._elements.values())

    @property
    def element_names(self) -> List[str]:
        return list(self._elements.keys())

    def nodes(self) -> Set[str]:
        """Every node referenced by any element (including ground)."""
        result: Set[str] = set()
        for element in self._elements.values():
            result.update(element.nodes)
        return result

    def opamps(self) -> List[OpAmp]:
        """Opamps in insertion order (followers excluded)."""
        return [e for e in self._elements.values() if isinstance(e, OpAmp)]

    def followers(self) -> List[Follower]:
        return [e for e in self._elements.values() if isinstance(e, Follower)]

    def passives(self) -> List[TwoTerminal]:
        """Resistors, capacitors and inductors in insertion order."""
        return [
            e
            for e in self._elements.values()
            if isinstance(e, (Resistor, Capacitor, Inductor))
        ]

    def sources(self) -> List[Element]:
        """Independent sources in insertion order."""
        return [
            e
            for e in self._elements.values()
            if isinstance(e, (VoltageSource, CurrentSource))
        ]

    def select(self, predicate: Callable[[Element], bool]) -> List[Element]:
        """Elements satisfying an arbitrary ``predicate``."""
        return [e for e in self._elements.values() if predicate(e)]

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def clone(self, title: Optional[str] = None) -> "Circuit":
        """Independent copy of the circuit (elements are shared, immutable)."""
        copy = Circuit(title or self.title, output=self.output)
        for element in self._elements.values():
            copy.add(element)
        return copy

    def with_replaced(self, name: str, element: Element) -> "Circuit":
        """Clone with one element swapped out."""
        copy = self.clone()
        copy.replace(name, element)
        return copy

    def with_value(self, name: str, value: float) -> "Circuit":
        """Clone with a two-terminal component's value changed."""
        element = self[name]
        if not isinstance(element, TwoTerminal):
            raise CircuitError(
                f"{self.title}: element {name!r} carries no scalar value"
            )
        return self.with_replaced(name, element.with_value(value))

    def with_scaled(self, name: str, factor: float) -> "Circuit":
        """Clone with a two-terminal component's value scaled by ``factor``."""
        element = self[name]
        if not isinstance(element, TwoTerminal):
            raise CircuitError(
                f"{self.title}: element {name!r} carries no scalar value"
            )
        return self.with_replaced(name, element.scaled(factor))

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def identity(self) -> str:
        """Exact content identity: title, output and every element's repr.

        :meth:`netlist` prints values to 6 significant digits, so two
        circuits whose values differ beyond that share a netlist.  A
        float ``repr`` round-trips, so circuits share an identity only
        when every element field is equal.  Content-addressed cache keys
        hash this text.
        """
        lines = [repr(self.title), repr(self.output)]
        lines.extend(repr(element) for element in self._elements.values())
        return "\n".join(lines) + "\n"

    def netlist(self) -> str:
        """SPICE-flavoured textual netlist of the circuit."""
        lines = [f"* {self.title}"]
        if self.output:
            lines.append(f".probe V({self.output})")
        lines.extend(element.card() for element in self._elements.values())
        lines.append(".end")
        return "\n".join(lines) + "\n"
