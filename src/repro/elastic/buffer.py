"""Single-thread elastic buffers (paper §II).

Two implementations with the same external contract (capacity 2, forward
and backward handshake latency of one cycle — the minimum storage for
full-throughput elastic pipelining [Carloni et al. 2001]):

* :class:`ElasticBuffer` — the flip-flop based 2-slot FIFO with the
  EMPTY/HALF/FULL occupancy states described in the paper.
* :class:`LatchElasticBuffer` — the latch-style decomposition into two
  chained capacity-1 half-buffers with a combinational ready bypass,
  mirroring the paper's remark that EBs "can be designed ... either with
  regular edge-triggered flip flops or level sensitive latches".

:class:`HalfBuffer` is the capacity-1 stage with a combinational ready
bypass.  All three present an upstream channel (``up``) whose ``ready``
they drive and a downstream channel (``down``) whose ``valid``/``data``
they drive.

The buffers have no slot-compiled step or tick plan: every engine runs
the plain ``combinational``/``capture``/``commit`` methods below, and the
registered state is plain attributes (no slot re-homing), which the
generic component snapshot path copies and restores.  No benchmark
workload runs these buffers, so a second hand-written copy of their
cycle behaviour would not pay for itself (``docs/engines.md``, fast-path
audit).
"""

from __future__ import annotations

from typing import Any

from repro.elastic.channel import ElasticChannel
from repro.kernel.component import Component
from repro.kernel.errors import SimulationError
from repro.kernel.values import X, as_bool, state_changed


#: Symbolic occupancy states used throughout tests and traces.
EMPTY = "EMPTY"
HALF = "HALF"
FULL = "FULL"


class ElasticBuffer(Component):
    """Flip-flop based 2-slot elastic buffer.

    State is a two-entry circular FIFO.  ``ready`` upstream is a function
    of the registered occupancy only (high unless FULL) and ``valid``
    downstream is high unless EMPTY, so the buffer cuts every combinational
    path between its two channels — the property that lets long chains of
    EBs settle in O(1) iterations.
    """

    CAPACITY = 2

    def __init__(
        self,
        name: str,
        up: ElasticChannel,
        down: ElasticChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.up = up
        self.down = down
        up.connect_consumer(self)
        down.connect_producer(self)
        # Both handshake outputs are functions of registered occupancy
        # only: the EB reads no signal combinationally.
        self.declare_reads()
        # Registered state: the stored items, oldest first.
        self._items: list[Any] = []
        self._next_items: list[Any] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def state(self) -> str:
        """Occupancy as the paper's EMPTY/HALF/FULL naming."""
        return (EMPTY, HALF, FULL)[len(self._items)]

    def contents(self) -> list[Any]:
        return list(self._items)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def combinational(self) -> None:
        count = len(self._items)
        self.up.ready.set(count < self.CAPACITY)
        self.down.valid.set(count > 0)
        self.down.data.set(self._items[0] if count else X)

    def capture(self) -> None:
        items = list(self._items)
        if self.down.transfer:
            items.pop(0)
        if self.up.transfer:
            if len(items) >= self.CAPACITY:
                raise SimulationError(f"{self.path}: enqueue into full EB")
            items.append(self.up.data.value)
        self._next_items = items

    def commit(self) -> bool:
        if self._next_items is None:
            return False
        changed = state_changed(self._items, self._next_items)
        self._items = self._next_items
        self._next_items = None
        return changed

    def reset(self) -> None:
        self._items = []
        self._next_items = None

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        return [
            ("ff", 2, width),      # two data slots
            ("mux2", 1, width),    # output/head selection
            ("ff", 1, 2),          # occupancy counter / state FSM
            ("lut", 3, 1),         # handshake control
        ]


class HalfBuffer(Component):
    """Capacity-1 elastic stage with combinational ready bypass.

    ``ready`` upstream is high when the slot is empty *or* the downstream
    side is draining it this very cycle, so a chain of half-buffers
    sustains full throughput with only one slot per stage — at the price of
    a combinational backward ``ready`` path (one extra settle iteration per
    chained stage) and one cycle of forward latency per stage.
    """

    def __init__(
        self,
        name: str,
        up: ElasticChannel,
        down: ElasticChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.up = up
        self.down = down
        up.connect_consumer(self)
        down.connect_producer(self)
        # The ready bypass reads downstream ready while the slot is full.
        self.declare_reads(down.ready)
        # Registered state: one slot.
        self._full = False
        self._item: Any = X
        self._next: tuple[bool, Any] | None = None

    @property
    def occupancy(self) -> int:
        return 1 if self._full else 0

    def combinational(self) -> None:
        self.down.valid.set(self._full)
        self.down.data.set(self._item if self._full else X)
        draining = self._full and as_bool(self.down.ready.value)
        self.up.ready.set((not self._full) or draining)

    def capture(self) -> None:
        full, item = self._full, self._item
        if self.down.transfer:
            full, item = False, X
        if self.up.transfer:
            full, item = True, self.up.data.value
        self._next = (full, item)

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = state_changed((self._full, self._item), self._next)
        self._full, self._item = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._full = False
        self._item = X
        self._next = None

    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        return [("latch", 1, width), ("lut", 2, 1)]


class LatchElasticBuffer(Component):
    """Latch-style EB: a main (slave) slot plus a shadow (master) slot.

    This is the master/slave latch decomposition at cycle granularity: the
    slave latch feeds the output every cycle; the master latch only
    captures ("skids") when the output is stalled.  Externally it is
    cycle-for-cycle equivalent to :class:`ElasticBuffer` — forward latency
    1, capacity 2, registered handshakes — which the property test in
    ``tests/test_elastic_buffer.py`` verifies under random traffic.  Only
    the area accounting differs (latches instead of flip-flops).
    """

    CAPACITY = 2

    def __init__(
        self,
        name: str,
        up: ElasticChannel,
        down: ElasticChannel,
        parent: Component | None = None,
    ):
        super().__init__(name, parent=parent)
        self.up = up
        self.down = down
        up.connect_consumer(self)
        down.connect_producer(self)
        self.declare_reads()
        # Registered state: (full, item) for the slave/output slot and the
        # master/shadow slot.
        self._out: tuple[bool, Any] = (False, X)
        self._skid: tuple[bool, Any] = (False, X)
        self._next: tuple[tuple[bool, Any], tuple[bool, Any]] | None = None

    @property
    def occupancy(self) -> int:
        return int(self._out[0]) + int(self._skid[0])

    @property
    def state(self) -> str:
        return (EMPTY, HALF, FULL)[self.occupancy]

    def contents(self) -> list[Any]:
        out: list[Any] = []
        if self._out[0]:
            out.append(self._out[1])
        if self._skid[0]:
            out.append(self._skid[1])
        return out

    def combinational(self) -> None:
        out_full, out_item = self._out
        self.down.valid.set(out_full)
        self.down.data.set(out_item if out_full else X)
        self.up.ready.set(not self._skid[0])

    def capture(self) -> None:
        out_full, out_item = self._out
        skid_full, skid_item = self._skid
        deq = self.down.transfer
        enq = self.up.transfer
        if enq and skid_full:
            raise SimulationError(f"{self.path}: enqueue while shadow full")
        incoming = self.up.data.value
        if deq:
            if skid_full:
                # Shadow refills the output slot; no enqueue was possible.
                out_full, out_item = True, skid_item
                skid_full, skid_item = False, X
            else:
                out_full, out_item = (True, incoming) if enq else (False, X)
        else:
            if enq:
                if out_full:
                    skid_full, skid_item = True, incoming
                else:
                    out_full, out_item = True, incoming
        self._next = ((out_full, out_item), (skid_full, skid_item))

    def commit(self) -> bool:
        if self._next is None:
            return False
        changed = state_changed((self._out, self._skid), self._next)
        self._out, self._skid = self._next
        self._next = None
        return changed

    def reset(self) -> None:
        self._out = (False, X)
        self._skid = (False, X)
        self._next = None

    def area_items(self) -> list[tuple[str, int, int]]:
        width = self.down.width
        return [
            ("latch", 2, width),   # master + slave latch arrays
            ("mux2", 1, width),    # refill path into the slave slot
            ("latch", 1, 2),       # control state
            ("lut", 3, 1),
        ]
