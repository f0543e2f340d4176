"""evlab: a numerical laboratory for evanescent-wave tunneling.

Stationary barrier solutions and flux, competing tunneling-time
definitions, wave-packet spectral analysis (band vs. standard deviation),
the frustrated-total-internal-reflection gap with pulse reshaping,
time-domain front-vs-peak velocity measurement, and the special-relativity
round-trip analysis of superluminal signaling with attenuation.
"""

from .numcore import Grid1D, UnitSystem, WavePacket, integrate

__version__ = "0.1.0"

__all__ = [
    "Grid1D",
    "UnitSystem",
    "WavePacket",
    "integrate",
    "__version__",
]
