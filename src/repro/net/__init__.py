"""Network substrate: topologies, transport, codecs, traffic accounting.

The paper connects nodes with either a Watts-Strogatz small-world graph
(610/50 nodes, 6 close connections, 3% long-range probability) or an
Erdos-Renyi random graph (p=5%, repaired to be connected), plus a fully
connected 8-node layout for the SGX hardware runs; messages travel over
ZeroMQ.  Here the graphs are generated from scratch
(:mod:`~repro.net.topology`), messages travel over an in-process transport
with per-edge accounting (:mod:`~repro.net.transport`), and payloads are
packed by compact binary codecs (:mod:`~repro.net.serialization`) whose
sizes define the network-volume metrics in the evaluation.
"""

from repro.net.metrics import TrafficMeter
from repro.net.serialization import (
    decode_mf_state,
    decode_triplets,
    encode_triplets,
    measure_mf_state,
    measure_triplets,
)
from repro.net.topology import Topology
from repro.net.transport import Endpoint, Message, Network

__all__ = [
    "Endpoint",
    "Message",
    "Network",
    "Topology",
    "TrafficMeter",
    "decode_mf_state",
    "decode_triplets",
    "encode_triplets",
    "measure_mf_state",
    "measure_triplets",
]
