"""DNS substrate: zone, workload, packet-level recursive, columnar traces."""

from .localview import (
    AuthorMachineExperiment,
    AuthorResult,
    IsiResolverExperiment,
    IsiResult,
)
from .records import DEFAULT_TLD_TTL_S, INVALID_TLDS, QTYPES, Question, QType, RootZone
from .resolver import (
    LetterPreference,
    ResolverConfig,
    RootLatencyModel,
    SimulatedRecursive,
    StaticRootLatency,
)
from .trace import SERVER_KINDS, ClientQuery, DnsTrace, UpstreamQuery
from .workload import (
    ORIGINS,
    BrowsingWorkload,
    Domain,
    DomainUniverse,
    QueryStream,
    TimedQuestion,
)

__all__ = [
    "AuthorMachineExperiment",
    "AuthorResult",
    "IsiResolverExperiment",
    "IsiResult",
    "DEFAULT_TLD_TTL_S",
    "INVALID_TLDS",
    "QTYPES",
    "Question",
    "QType",
    "RootZone",
    "LetterPreference",
    "ResolverConfig",
    "RootLatencyModel",
    "SimulatedRecursive",
    "StaticRootLatency",
    "ClientQuery",
    "DnsTrace",
    "SERVER_KINDS",
    "UpstreamQuery",
    "BrowsingWorkload",
    "Domain",
    "DomainUniverse",
    "ORIGINS",
    "QueryStream",
    "TimedQuestion",
]
