"""Astro's payment core — the paper's primary contribution.

Exclusive logs, the broadcast-based payment protocol (Listings 1–4), the
dependency mechanism of Astro II (Listings 6–10), and asynchronous
sharding (§V).
"""

from .accounts import AccountState
from .astro1 import Astro1Replica
from .interning import ClientInterner
from .astro2 import Astro2Replica
from .client import ClientNode
from .config import AstroConfig
from .dependencies import (
    CreditMessage,
    DependencyCertificate,
    DependencyCollector,
    credit_content,
    subbatch_digest_of,
    verify_certificate,
)
from .directory import Directory
from .messages import ClientConfirm, ClientSubmit
from .payment import ClientId, Payment, PaymentId
from .replica import AstroReplicaBase
from .system import Astro1System, Astro2System
from .xlog import ExclusiveLog, XlogViolation

__all__ = [
    "AccountState",
    "ClientInterner",
    "Astro1Replica",
    "Astro2Replica",
    "ClientNode",
    "AstroConfig",
    "CreditMessage",
    "DependencyCertificate",
    "DependencyCollector",
    "credit_content",
    "subbatch_digest_of",
    "verify_certificate",
    "Directory",
    "ClientConfirm",
    "ClientSubmit",
    "ClientId",
    "Payment",
    "PaymentId",
    "AstroReplicaBase",
    "Astro1System",
    "Astro2System",
    "ExclusiveLog",
    "XlogViolation",
]
