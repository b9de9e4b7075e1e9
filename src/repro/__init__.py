"""repro: a full reproduction of "Characterizing, Exploiting, and
Detecting DMA Code Injection Vulnerabilities in the Presence of an
IOMMU" (Markuze et al., EuroSys '21).

Public entry points:

* :class:`repro.sim.kernel.Kernel` -- boot a simulated victim machine
  (memory, KASLR, IOMMU, DMA API, network stack).
* :class:`repro.core.spade.Spade` -- the static analyzer, over the
  synthetic Linux-5.0-shaped corpus from :mod:`repro.corpus`.
* :class:`repro.core.dkasan.DKasan` -- the runtime sanitizer; pass it
  as the kernel's event sink.
* :mod:`repro.core.attacks` -- the single-step baseline and the
  compound attacks (RingFlood, Poisoned TX, Forward Thinking,
  surveillance, blinding bypass).
* :mod:`repro.core.defenses` -- strict invalidation, bounce buffers,
  DAMN-style segregation, pointer blinding, CET; plus the
  attack-vs-defense evaluation matrix.
"""

from repro.sim.kernel import Kernel
from repro.core.vulns import SubPageVulnerability, VulnType
from repro.core.attributes import VulnerabilityAttributes

__version__ = "1.19.0"

__all__ = [
    "Kernel",
    "SubPageVulnerability",
    "VulnType",
    "VulnerabilityAttributes",
    "__version__",
]
