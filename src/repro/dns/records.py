"""DNS names, query types, and the root zone.

The root zone holds NS records for roughly one thousand TLDs, nearly all
with a two-day TTL — the single fact that makes root DNS latency almost
invisible to users (§4).  TLD popularity is heavy-tailed (``com`` alone
dominates), which drives how quickly a resolver's TLD cache warms up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..geo import make_rng

__all__ = ["QType", "QTYPES", "Question", "RootZone", "INVALID_TLDS", "DEFAULT_TLD_TTL_S"]

#: TLD NS/glue records carry a two-day TTL.
DEFAULT_TLD_TTL_S = 172_800

#: Invalid TLDs commonly leaking to the roots (Gao et al. / ICANN): real
#: words from corporate networks and gear, not typos.
INVALID_TLDS = ("local", "belkin", "corp", "home", "lan", "internal", "domain", "localdomain")


class QType(enum.Enum):
    """Query types the pipeline distinguishes."""

    A = "A"
    AAAA = "AAAA"
    NS = "NS"
    PTR = "PTR"


#: Query types by the integer code columnar streams and traces store.
QTYPES: tuple[QType, ...] = tuple(QType)


@dataclass(frozen=True, slots=True)
class Question:
    """A DNS question."""

    qname: str
    qtype: QType

    @property
    def tld(self) -> str:
        """Rightmost label ('' for the root itself)."""
        return self.qname.rstrip(".").rsplit(".", 1)[-1] if self.qname.strip(".") else ""

    @property
    def is_single_label(self) -> bool:
        return "." not in self.qname.strip(".")


class RootZone:
    """The root zone: valid TLDs, their TTLs, and popularity weights."""

    def __init__(self, n_tlds: int = 1000, ttl_s: int = DEFAULT_TLD_TTL_S, seed: int = 0):
        if n_tlds < 1:
            raise ValueError("need at least one TLD")
        rng = make_rng(seed, "rootzone")
        names = ["com", "net", "org", "io", "de", "uk", "jp", "cn", "br", "in"]
        names += [f"tld{i:04d}" for i in range(len(names), n_tlds)]
        self.tlds: tuple[str, ...] = tuple(names[:n_tlds])
        self.ttl_s = ttl_s
        self._tld_set = frozenset(self.tlds)
        ranks = np.arange(1, n_tlds + 1, dtype=float)
        # Steep popularity: com/net/org-class TLDs dominate real query
        # streams, which is what keeps per-user TLD cache misses rare.
        weights = 1.0 / ranks**1.9
        # Perturb so popularity is not perfectly rank-ordered.
        weights *= rng.lognormal(mean=0.0, sigma=0.2, size=n_tlds)
        self.popularity = weights / weights.sum()

    def __len__(self) -> int:
        return len(self.tlds)

    def is_valid_tld(self, tld: str) -> bool:
        return tld in self._tld_set

    def sample_tlds(self, rng: np.random.Generator, size: int) -> list[str]:
        """Sample TLDs by popularity (with replacement)."""
        indexes = rng.choice(len(self.tlds), size=size, p=self.popularity)
        return [self.tlds[i] for i in indexes]

    def ideal_daily_root_queries(self) -> float:
        """Once-per-TTL refresh rate for the whole zone (Fig. 3's Ideal)."""
        return len(self.tlds) / (self.ttl_s / 86_400.0)
