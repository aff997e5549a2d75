"""Bound-entangled probes for ancilla-assisted quantum process tomography.

Core pieces: bipartite realignment linear algebra, a zoo of probe
states (including PPT bound entangled ones), CCNR/faithfulness
diagnostics, channel representations, the linear-inversion tomography
pipeline, local filtering analysis, and a see-saw search for PPT states
maximizing the realigned trace norm.  Each name is imported from the
submodule that defines it (``beqpt.bipartite``, ``beqpt.tomography``,
...); the package re-exports nothing, so ``import beqpt`` loads no
submodule.
"""

__version__ = "0.1.0"
