"""How fast the host runs this interpreter right now.

On a shared host the speed of a core moves by up to two times within
seconds, as other tenants load its sibling.  ``probe()`` times a fixed
pure-Python ``Fraction`` loop in CPU time; ``normalize()`` scales a CPU time
measured next to probes to the speed at which one probe takes
``REFERENCE_S``, so that a slow or fast host moment cancels out.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: CPU seconds of one 150-iteration probe on the host the reference figures
#: come from, in its usual state: the unit of normalized times.
REFERENCE_S = 0.0016


def probe(iterations=150):
    """CPU seconds of a fixed Fraction loop."""
    start = time.process_time()
    acc = 0
    for i in range(1, iterations + 1):
        x = Fraction(i, i + 7)
        y = x * x + x - Fraction(1, 3)
        acc += y.numerator % 7
    return time.process_time() - start


def normalize(cpu, probes):
    """``cpu`` seconds at the host speed where a probe takes REFERENCE_S,
    given the probes taken around it."""
    return cpu * REFERENCE_S * len(probes) / sum(probes)
