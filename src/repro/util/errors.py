"""The configuration error every layer raises.

It lives in :mod:`repro.util` so the lower layers (DNS, specs) can
raise it without importing :mod:`repro.core`, whose package imports
the DoH client. :mod:`repro.core.errors` re-exports it.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Invalid spec, generator or resolver-set configuration."""
