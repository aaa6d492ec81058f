"""The APPx acceleration proxy (§4.2–§4.5).

* :mod:`repro.proxy.instances` — run-time signature wrappers, template
  matching with capture groups, and prefetch request instances.
* :mod:`repro.proxy.learning` — dynamic learning (Fig. 6): observe
  transactions, learn run-time values, instantiate successor requests
  from predecessor responses, adapt to recent branch conditions.
* :mod:`repro.proxy.cache` — the prefetched-response cache with
  expiration and per-user isolation.
* :mod:`repro.proxy.config` — the prefetching policy (Fig. 9).
* :mod:`repro.proxy.prefetcher` — priority-scheduled prefetch issuing
  (§5) with chain prefetching and a data budget.
* :mod:`repro.proxy.proxy` — the proxy main loop (Fig. 10) and the
  client transport that routes through it.
* :mod:`repro.proxy.verification` — the testing & verification phase
  (§4.3): fuzz-driven validation and expiry estimation producing the
  initial configuration.
"""

from repro.proxy.cache import CacheEntry, PrefetchCache
from repro.proxy.config import Condition, ProxyConfig, SignaturePolicy, default_config
from repro.proxy.instances import RequestInstance, RuntimeSignature, SignatureMatcher
from repro.proxy.learning import DynamicLearner
from repro.proxy.multiapp import MultiAppProxy, MultiAppTransport
from repro.proxy.popularity import PopularityTracker
from repro.proxy.prefetcher import Prefetcher
from repro.proxy.proxy import AccelerationProxy, ProxiedTransport
from repro.proxy.verification import VerificationReport, run_verification

__all__ = [
    "AccelerationProxy",
    "CacheEntry",
    "Condition",
    "DynamicLearner",
    "MultiAppProxy",
    "MultiAppTransport",
    "PopularityTracker",
    "PrefetchCache",
    "Prefetcher",
    "ProxiedTransport",
    "ProxyConfig",
    "RequestInstance",
    "RuntimeSignature",
    "SignatureMatcher",
    "SignaturePolicy",
    "VerificationReport",
    "default_config",
    "run_verification",
]
