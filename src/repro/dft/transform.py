"""The multi-configuration DFT transformation.

:func:`apply_multiconfiguration` wraps a circuit into a
:class:`MultiConfigurationCircuit`: every opamp of the DFT *chain* is
(conceptually) replaced by a configurable opamp whose additional
``In_test`` input is wired so that the chain runs from the primary input
to the primary output (paper Fig. 4).  The wrapper can then *emulate* the
circuit in any :class:`~repro.dft.configuration.Configuration` — opamps in
follower mode become unity buffers driven by their chained test input.

The optional :class:`SwitchParasitics` model quantifies the DFT penalty of
the switch-based configurable-opamp implementation (paper ref. [14]).  The
output multiplexer of a configurable opamp sits *outside* the opamp's
local feedback loop — the loop still senses the amplifier output directly,
but every downstream element (and the externally observable pin) sees the
output through the closed switch ``ron``, and the unselected mux input
leaks through ``roff``.  With parasitics enabled, even the functional
configuration ``C_0`` deviates slightly from the original circuit — this
is the "performance degradation" cost of §4.3, measurable with
:func:`repro.core.costs.performance_degradation_evaluator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import dataclasses

from ..circuit.components import (
    Branch,
    Element,
    Stamper,
    Switch,
    VoltageSource,
)
from ..circuit.netlist import Circuit
from ..circuit.opamp import Follower, OpAmp
from ..errors import ConfigurationError
from .configuration import Configuration, enumerate_configurations

#: dataclass fields that hold node names, across every element type
_NODE_FIELDS = ("n1", "n2", "np", "nn", "ncp", "ncn", "inp", "inn", "out")


def _rewire(element: Element, old: str, new: str) -> Element:
    """Copy of ``element`` with every terminal on ``old`` moved to ``new``."""
    changes = {}
    for field in dataclasses.fields(element):
        if field.name in _NODE_FIELDS:
            if getattr(element, field.name) == old:
                changes[field.name] = new
    if not changes:
        return element
    return dataclasses.replace(element, **changes)


class FollowerRow(NamedTuple):
    """The MNA row a configurable opamp's follower stamps in its opamp's.

    The follower keeps the opamp's name, slot and branch unknown and
    stamps what the opamp stamps outside that branch's row (its output
    current into the output node), so follower mode rewrites one row of
    the pencil: ``branch``'s, to the follower's ``(column, g, c)``
    stamps ``entries``, in stamp order.
    """

    follower: Follower
    branch: Branch
    entries: Tuple[Tuple[object, float, float], ...]


class _RowRecorder(Stamper):
    """The ``(column, g, c)`` stamps an element makes into one row."""

    def __init__(self, element: Element, row):
        self.row = row
        self.entries: List[Tuple[object, float, float]] = []
        element.stamp(self)

    def add(self, row, col, g: float = 0.0, c: float = 0.0) -> None:
        if row == self.row:
            self.entries.append((col, g, c))

    def rhs(self, row, value: complex) -> None:
        raise NotImplementedError("a follower stamps no excitation")


@dataclass(frozen=True)
class SwitchParasitics:
    """Parasitics of the switch-based configurable opamp."""

    ron: float = 100.0
    roff: float = 1e9

    def __post_init__(self) -> None:
        if self.ron <= 0 or self.roff <= self.ron:
            raise ConfigurationError(
                "switch parasitics need 0 < ron < roff"
            )


class MultiConfigurationCircuit:
    """A circuit plus its multi-configuration DFT instrumentation.

    Parameters
    ----------
    base:
        The original (functional) circuit.  Never mutated.
    chain:
        Names of the chained opamps, in order from the primary input to
        the primary output.
    input_node:
        Node feeding the test input of the first chain opamp (the primary
        input).
    configurable:
        1-based positions of the opamps actually replaced by configurable
        implementations.  Defaults to all of them (*full DFT*); a proper
        subset models the *partial DFT* of §4.3.
    parasitics:
        Optional switch parasitics; ``None`` keeps the emulation ideal.
    """

    def __init__(
        self,
        base: Circuit,
        chain: Sequence[str],
        input_node: str,
        configurable: Optional[Iterable[int]] = None,
        parasitics: Optional[SwitchParasitics] = None,
    ):
        if not chain:
            raise ConfigurationError("DFT chain must name at least one opamp")
        for name in chain:
            if name not in base:
                raise ConfigurationError(
                    f"{base.title}: chain opamp {name!r} not in circuit"
                )
            if not isinstance(base[name], OpAmp):
                raise ConfigurationError(
                    f"{base.title}: chain element {name!r} is not an opamp"
                )
        if len(set(chain)) != len(chain):
            raise ConfigurationError("DFT chain repeats an opamp")
        if input_node not in base.nodes():
            raise ConfigurationError(
                f"{base.title}: input node {input_node!r} not in circuit"
            )

        self.base = base
        self.chain: Tuple[str, ...] = tuple(chain)
        self.input_node = input_node
        self.parasitics = parasitics

        if configurable is None:
            self.configurable: FrozenSet[int] = frozenset(
                range(1, len(self.chain) + 1)
            )
        else:
            self.configurable = frozenset(int(p) for p in configurable)
            bad = [
                p
                for p in self.configurable
                if not 1 <= p <= len(self.chain)
            ]
            if bad:
                raise ConfigurationError(
                    f"configurable positions out of range: {sorted(bad)}"
                )

    # ------------------------------------------------------------------
    @property
    def n_opamps(self) -> int:
        """Number of opamps in the DFT chain."""
        return len(self.chain)

    @property
    def n_configurable(self) -> int:
        """Number of opamps actually implemented as configurable."""
        return len(self.configurable)

    @property
    def is_partial(self) -> bool:
        return self.n_configurable < self.n_opamps

    @property
    def n_configurations(self) -> int:
        """Number of emulable configurations (``2^configurable``)."""
        return 2 ** self.n_configurable

    def opamp_name(self, position: int) -> str:
        """Chain opamp name at 1-based ``position``."""
        if not 1 <= position <= self.n_opamps:
            raise ConfigurationError(
                f"opamp position {position} out of range"
            )
        return self.chain[position - 1]

    def opamp_position(self, name: str) -> int:
        """1-based chain position of opamp ``name``."""
        try:
            return self.chain.index(name) + 1
        except ValueError:
            raise ConfigurationError(
                f"opamp {name!r} is not part of the DFT chain"
            ) from None

    def test_input_node(self, position: int) -> str:
        """Node wired to the ``In_test`` input of the opamp at ``position``.

        The first chain opamp taps the primary input; every other opamp
        taps the output of its predecessor, forming the chain of Fig. 4.
        """
        if position == 1:
            return self.input_node
        predecessor = self.base[self.opamp_name(position - 1)]
        assert isinstance(predecessor, OpAmp)
        return predecessor.out

    # ------------------------------------------------------------------
    def configurations(
        self,
        include_functional: bool = True,
        include_transparent: bool = False,
    ) -> List[Configuration]:
        """Configurations this (possibly partial) DFT can emulate.

        Configurations are indexed over the *full* chain so partial-DFT
        results stay directly comparable with full-DFT ones; only the
        configurations whose follower set is within the configurable
        subset are returned.
        """
        configs = [
            c
            for c in enumerate_configurations(
                self.n_opamps,
                include_functional=include_functional,
                include_transparent=True,
            )
            if c.uses_only(self.configurable)
        ]
        if not include_transparent:
            # Only the all-follower identity configuration is transparent;
            # in a partial DFT it is not emulable anyway (some opamps are
            # classical), so partial chains keep all their configurations —
            # exactly the paper's Table 4, which uses "11-".
            configs = [c for c in configs if not c.is_transparent]
        return configs

    def follower_opamps(self, config: Configuration) -> Tuple[str, ...]:
        """Names of the opamps in follower mode under ``config``."""
        return tuple(
            self.opamp_name(p) for p in config.follower_positions
        )

    def follower(self, position: int) -> Follower:
        """The unity buffer the opamp at ``position`` is in follower mode.

        It keeps the opamp's name and model and drives its output node
        from the chained test input (:meth:`test_input_node`).
        """
        opamp = self.base[self.opamp_name(position)]
        return Follower(
            opamp.name,
            inp=self.test_input_node(position),
            out=opamp.out,
            model=opamp.model,
        )

    @cached_property
    def follower_rows(self) -> Dict[int, FollowerRow]:
        """Each configurable opamp's :class:`FollowerRow`, by position.

        A configuration whose circuit numbers its nodes as the
        functional one does is then the functional stamp with its
        followers' rows written in
        (:meth:`~repro.analysis.mna.MnaSystem.with_rows`).  Empty under
        switch parasitics, where a follower also drops its mux's leakage
        switch.
        """
        if self.parasitics is not None:
            return {}
        rows = {}
        for position in sorted(self.configurable):
            follower = self.follower(position)
            branch = follower.branch()
            entries = _RowRecorder(follower, branch).entries
            rows[position] = FollowerRow(follower, branch, tuple(entries))
        return rows

    def check_configuration(self, config: Configuration) -> None:
        """Raise :class:`ConfigurationError` unless this DFT can emulate
        ``config``."""
        if config.n_opamps != self.n_opamps:
            raise ConfigurationError(
                f"configuration is sized for {config.n_opamps} opamps, "
                f"chain has {self.n_opamps}"
            )
        if not config.uses_only(self.configurable):
            raise ConfigurationError(
                f"{config.label} needs follower opamps "
                f"{sorted(config.follower_set - self.configurable)} that "
                "are not configurable in this (partial) DFT"
            )

    def configuration_title(self, config: Configuration) -> str:
        """Title of the circuit :meth:`emulate` makes for ``config``."""
        return f"{self.base.title} [{config.label}]"

    # ------------------------------------------------------------------
    def emulate(self, config: Configuration, title: Optional[str] = None) -> Circuit:
        """Concrete circuit implementing configuration ``config``.

        Follower-mode opamps are replaced by unity buffers from their
        chained test input to their output node; normal-mode opamps stay
        untouched (ideal emulation) or gain switch parasitics when a
        :class:`SwitchParasitics` model is attached.
        """
        self.check_configuration(config)
        circuit = self.base.clone(title or self.configuration_title(config))
        for position in range(1, self.n_opamps + 1):
            name = self.opamp_name(position)
            opamp = self.base[name]
            assert isinstance(opamp, OpAmp)
            in_follower = position in config.follower_set
            is_configurable = position in self.configurable

            if not is_configurable:
                continue  # classical opamp, untouched
            if in_follower:
                circuit.replace(name, self.follower(position))
            if self.parasitics is not None:
                self._add_output_mux(circuit, opamp, in_follower, position)
        return circuit

    def _add_output_mux(
        self,
        circuit: Circuit,
        opamp: OpAmp,
        in_follower: bool,
        position: int,
    ) -> None:
        """Model the configurable opamp's output multiplexer.

        The opamp's *local feedback* (every element also touching one of
        its input nodes) keeps sensing the amplifier output directly;
        everything downstream is rewired to a post-switch pin reached
        through the closed ``ron`` switch, and the unselected mux input
        leaks onto that pin through ``roff``.  This is the mechanism that
        makes the partial DFT of §4.3 cheaper: a classical opamp carries
        no mux, hence no degradation.
        """
        out = opamp.out
        post = f"__{opamp.name}_pin"
        local = {opamp.inp, opamp.inn}
        for element in circuit.elements:
            if element.name == opamp.name:
                continue
            if out not in element.nodes:
                continue
            if local & set(element.nodes):
                continue  # local feedback stays inside the loop
            circuit.replace(element.name, _rewire(element, out, post))
        circuit.add(
            Switch(
                f"__{opamp.name}_sw_on",
                out,
                post,
                closed=True,
                ron=self.parasitics.ron,
                roff=self.parasitics.roff,
            )
        )
        if not in_follower:
            # The unselected test path leaks onto the output pin.
            test_node = self.test_input_node(position)
            circuit.add(
                Switch(
                    f"__{opamp.name}_sw_off",
                    test_node,
                    post,
                    closed=False,
                    ron=self.parasitics.ron,
                    roff=self.parasitics.roff,
                )
            )
        if circuit.output == out:
            circuit.output = post

    # ------------------------------------------------------------------
    def restrict(self, configurable: Iterable[int]) -> "MultiConfigurationCircuit":
        """Partial-DFT variant keeping only ``configurable`` opamps.

        The chain, input node and parasitics are preserved; only the set
        of opamps implemented as configurable shrinks.
        """
        return MultiConfigurationCircuit(
            base=self.base,
            chain=self.chain,
            input_node=self.input_node,
            configurable=configurable,
            parasitics=self.parasitics,
        )

    def describe(self) -> str:
        kind = "partial" if self.is_partial else "full"
        configurable = ", ".join(
            self.opamp_name(p) for p in sorted(self.configurable)
        )
        return (
            f"{self.base.title}: {kind} multi-configuration DFT, "
            f"chain={' -> '.join(self.chain)}, "
            f"configurable={{{configurable}}}, "
            f"{self.n_configurations} configurations"
        )


def apply_multiconfiguration(
    circuit: Circuit,
    chain: Optional[Sequence[str]] = None,
    input_node: Optional[str] = None,
    configurable: Optional[Iterable[int]] = None,
    parasitics: Optional[SwitchParasitics] = None,
) -> MultiConfigurationCircuit:
    """Instrument ``circuit`` with the multi-configuration DFT.

    Parameters default to the systematic application of the technique:
    the chain is every opamp in insertion order and the primary input is
    the positive node of the first independent voltage source.
    """
    if chain is None:
        chain = [amp.name for amp in circuit.opamps()]
        if not chain:
            raise ConfigurationError(
                f"{circuit.title}: no opamps to instrument"
            )
    if input_node is None:
        sources = [
            e for e in circuit.sources() if isinstance(e, VoltageSource)
        ]
        if not sources:
            raise ConfigurationError(
                f"{circuit.title}: no voltage source to locate the "
                "primary input; pass input_node explicitly"
            )
        input_node = sources[0].np
    return MultiConfigurationCircuit(
        base=circuit,
        chain=chain,
        input_node=input_node,
        configurable=configurable,
        parasitics=parasitics,
    )
