"""The paper's contribution: link matching.  Trit algebra, virtual links and
initialization masks, per-broker routers (annotation and the refinement
search run on the compiled program), and the untimed content-routed network
fabric."""

from repro.core.fabric import ContentRoutedNetwork, DeliveryTrace
from repro.core.masks import VirtualLink, VirtualLinkTable
from repro.core.router import ContentRouter, RouteDecision
from repro.core.trits import (
    M,
    N,
    PackedTrits,
    Trit,
    TritVector,
    Y,
    alternative_combine,
    alternative_combine_bits,
    import_yes_bits,
    parallel_combine,
    parallel_combine_bits,
    refine_bits,
    unpack_tritvector,
)

__all__ = [
    "ContentRoutedNetwork",
    "ContentRouter",
    "DeliveryTrace",
    "M",
    "N",
    "PackedTrits",
    "RouteDecision",
    "Trit",
    "TritVector",
    "VirtualLink",
    "VirtualLinkTable",
    "Y",
    "alternative_combine",
    "alternative_combine_bits",
    "import_yes_bits",
    "parallel_combine",
    "parallel_combine_bits",
    "refine_bits",
    "unpack_tritvector",
]
