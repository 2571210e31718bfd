"""Selection policies (paper Sections 2.1 and 3.5).

Selection chooses which woken instructions issue this cycle.  The paper's
scheme "assigns highest priority to branch and load instructions and
prioritizes the rest based on dynamic program order — oldest first.
Non-speculative instructions are preferred over speculative."

Every policy sorts its candidates by one total key, (branch/load
priority, speculative inputs, sid), with the first two terms masked by
the policy's entry in :data:`SELECTION_TERMS`: a zero mask drops a term.
The sid is unique, so each policy's order is total and never depends on
the order candidates were gathered in.
"""

from __future__ import annotations

from repro.core.variables import SelectionPolicy
from repro.window.station import Station

#: Per policy, the masks (priority term, speculative term) applied to a
#: station's ``sel_priority`` (0 for branches and loads) and to its
#: speculative-inputs flag.
SELECTION_TERMS = {
    SelectionPolicy.PAPER: (1, 1),
    SelectionPolicy.SPECULATIVE_EQUAL: (1, 0),
    SelectionPolicy.OLDEST_FIRST: (0, 0),
}


def selection_key(station: Station, policy: SelectionPolicy) -> tuple:
    """Sort key: lower sorts first (is selected earlier)."""
    prio_term, spec_term = SELECTION_TERMS[policy]
    return (
        station.sel_priority & prio_term,
        station.speculative_inputs & spec_term,
        station.sid,
    )
