"""Gate-level netlist data structures and interchange formats (the
structural substrate of the paper's Table 1 designs)."""

from repro.netlist.bench import read_bench, write_bench
from repro.netlist.core import (FUNCTION_ARITY, SEQUENTIAL_FUNCTIONS, Gate,
                                Net, Netlist)
from repro.netlist.stats import NetlistStats, netlist_stats
from repro.netlist.verilog import (input_pin_names, output_pin_name,
                                   read_verilog, write_verilog)

__all__ = [
    "FUNCTION_ARITY",
    "Gate",
    "Net",
    "Netlist",
    "NetlistStats",
    "SEQUENTIAL_FUNCTIONS",
    "input_pin_names",
    "netlist_stats",
    "output_pin_name",
    "read_bench",
    "read_verilog",
    "write_bench",
    "write_verilog",
]
