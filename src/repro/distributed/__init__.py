"""Data-parallel distributed training (paper Sections 2.2 and 4.5).

The paper scales ResNet-50 on MXNet across GPUs and machines with data
parallelism and a parameter-server exchange, and finds (Observation 13)
that single-machine multi-GPU scales well over PCIe 3.0 while two-machine
training collapses over Ethernet and needs 100 Gb/s InfiniBand to help.
This package models exactly that: gradient-exchange cost over the cluster's
links, partially overlapped with the backward pass.
"""

from repro.distributed.data_parallel import (
    DataParallelTrainer,
    DistributedProfile,
)
from repro.distributed.parameter_server import ParameterServerExchange
from repro.distributed.allreduce import RingAllReduceExchange
from repro.distributed.topology import standard_configurations

__all__ = [
    "DataParallelTrainer",
    "DistributedProfile",
    "ParameterServerExchange",
    "RingAllReduceExchange",
    "standard_configurations",
]
