"""Sparse neural-net training that fights rank collapse.

High unstructured sparsity tends to produce quasi-structured masks whose
weight matrices lose rank. This package trains under a gradual prune-and-grow
schedule while an adversarial rank term pushes each (normalized) weight matrix
away from its best low-rank approximation, and it measures the resulting
delta-ranks.

The modules are the API (from rankprune import trainer), each declaring its
public names in __all__; importing the package itself loads none of them.
"""

__version__ = "0.1.0"
