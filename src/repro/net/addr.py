"""IPv4 addresses and prefixes.

Addresses are stored as plain integers for speed; helpers convert to and
from dotted-quad strings.  The analysis pipeline never needs anything more
specific than a /24 (the paper anonymises and aggregates at that
granularity), so ``slash24`` keys are first-class citizens here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ip_to_str",
    "str_to_ip",
    "slash24_of",
    "slash24_to_str",
    "Prefix",
    "PRIVATE_PREFIXES",
    "is_private",
    "is_private_many",
]


def ip_to_str(ip: int) -> str:
    """Render an integer IPv4 address as dotted-quad."""
    if not 0 <= ip <= 0xFFFFFFFF:
        raise ValueError(f"not an IPv4 address: {ip}")
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def str_to_ip(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def slash24_of(ip: int) -> int:
    """The /24 key (upper 24 bits) that contains ``ip``."""
    return ip >> 8


def slash24_to_str(key: int) -> str:
    """Render a /24 key as ``a.b.c.0/24``."""
    return ip_to_str(key << 8) + "/24"


@dataclass(frozen=True, slots=True)
class Prefix:
    """An IPv4 prefix ``network/length``."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"bad prefix length: {self.length}")
        mask = self.mask
        if self.network & ~mask & 0xFFFFFFFF:
            raise ValueError(f"host bits set in {ip_to_str(self.network)}/{self.length}")

    @property
    def mask(self) -> int:
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF if self.length else 0

    @property
    def size(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self.length)

    def contains(self, ip: int) -> bool:
        return (ip & self.mask) == self.network

    def nth(self, index: int) -> int:
        """The ``index``-th address within the prefix."""
        if not 0 <= index < self.size:
            raise IndexError(f"address index {index} outside /{self.length}")
        return self.network + index

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        network_text, _, length_text = text.partition("/")
        return cls(str_to_ip(network_text), int(length_text))

    def __str__(self) -> str:
        return f"{ip_to_str(self.network)}/{self.length}"


#: RFC 1918 and other special-purpose space the DITL pipeline discards.
PRIVATE_PREFIXES: tuple[Prefix, ...] = (
    Prefix.parse("10.0.0.0/8"),
    Prefix.parse("172.16.0.0/12"),
    Prefix.parse("192.168.0.0/16"),
    Prefix.parse("100.64.0.0/10"),
    Prefix.parse("127.0.0.0/8"),
    Prefix.parse("169.254.0.0/16"),
)


_PRIVATE_MASKS = tuple((prefix.mask, prefix.network) for prefix in PRIVATE_PREFIXES)


def is_private(ip: int) -> bool:
    """Whether ``ip`` falls in special-purpose (non-routable) space."""
    for mask, network in _PRIVATE_MASKS:
        if ip & mask == network:
            return True
    return False


def is_private_many(ips: np.ndarray) -> np.ndarray:
    """:func:`is_private` over an array of addresses, as a boolean mask."""
    ips = np.asarray(ips)
    private = np.zeros(ips.shape, dtype=bool)
    for mask, network in _PRIVATE_MASKS:
        private |= (ips & mask) == network
    return private
