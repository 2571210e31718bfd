"""The unified instruction window (Register Update Unit).

The paper's baseline (Section 2.1) unifies issue resources (reservation
stations) and retirement resources (reorder-buffer entries) in a single
structure, following Sohi's RUU.  Instructions enter in dynamic program
order at dispatch, issue out of order via wakeup/selection, and release
their entry at retirement.
"""

from repro.window.station import Operand, Station
from repro.window.ruu import InstructionWindow
from repro.window.wakeup import can_wake
from repro.window.selection import selection_key

__all__ = [
    "Operand",
    "Station",
    "InstructionWindow",
    "can_wake",
    "selection_key",
]
