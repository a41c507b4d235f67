"""Netlist statistics used in reports and experiment tables (the
gates/depth columns of the paper's Table 1)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.core import Netlist


@dataclass(frozen=True)
class NetlistStats:
    """Summary statistics for one netlist."""

    name: str
    num_gates: int
    num_combinational: int
    num_sequential: int
    num_primary_inputs: int
    num_primary_outputs: int
    num_nets: int
    logic_depth: int
    max_fanout: int
    avg_fanout: float
    function_histogram: dict[str, int]

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"netlist {self.name}:",
            f"  gates          {self.num_gates}"
            f" ({self.num_combinational} comb, {self.num_sequential} seq)",
            f"  primary I/O    {self.num_primary_inputs} in /"
            f" {self.num_primary_outputs} out",
            f"  nets           {self.num_nets}",
            f"  logic depth    {self.logic_depth}",
            f"  fanout         max {self.max_fanout}, avg {self.avg_fanout:.2f}",
        ]
        parts = ", ".join(f"{fn}:{count}"
                          for fn, count in self.function_histogram.items())
        lines.append(f"  functions      {parts}")
        return "\n".join(lines)


def netlist_stats(netlist: Netlist) -> NetlistStats:
    """Compute :class:`NetlistStats` for a netlist."""
    fanouts = [len(net.sinks) for net in netlist.nets.values()]
    return NetlistStats(
        name=netlist.name,
        num_gates=netlist.num_gates,
        num_combinational=len(netlist.combinational_gates()),
        num_sequential=len(netlist.sequential_gates()),
        num_primary_inputs=len(netlist.primary_inputs),
        num_primary_outputs=len(netlist.primary_outputs),
        num_nets=len(netlist.nets),
        logic_depth=netlist.logic_depth(),
        max_fanout=max(fanouts, default=0),
        avg_fanout=(sum(fanouts) / len(fanouts)) if fanouts else 0.0,
        function_histogram=netlist.function_histogram(),
    )
