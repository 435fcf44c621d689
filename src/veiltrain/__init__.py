"""Curator-free differentially private logistic regression over two-party
additive secret sharing: joint training plus jointly sampled output
perturbation, so the published model satisfies epsilon-DP while no party ever
sees the data, the intermediate weights, or the noise."""

from .fixedpoint import RingConfig, decode, encode, truncate

__version__ = "0.1.0"

__all__ = ["RingConfig", "encode", "decode", "truncate", "__version__"]
