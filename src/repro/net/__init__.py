"""Addressing substrate: IPv4 arithmetic, ASN registry, IP→ASN mapping."""

from .addr import (
    PRIVATE_PREFIXES,
    Prefix,
    ip_to_str,
    is_private,
    is_private_many,
    slash24_of,
    slash24_to_str,
    str_to_ip,
)
from .asn import AddressPlan, AsnRecord
from .mapping import IpToAsnMapper

__all__ = [
    "PRIVATE_PREFIXES",
    "Prefix",
    "ip_to_str",
    "is_private",
    "is_private_many",
    "slash24_of",
    "slash24_to_str",
    "str_to_ip",
    "AddressPlan",
    "AsnRecord",
    "IpToAsnMapper",
]
