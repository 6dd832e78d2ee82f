"""Spatial-audio-driven human motion generation toolkit.

Submodules:
    autodiff     tensors with taped (float64) reverse-mode differentiation
    optim        AdamW
    checkpoint   binary parameter files
    nn           layers (linear, attention, GRU)
    skeleton     25-joint body, 6D rotations, FK, motion packing
    audio        binaural feature extraction (2272-wide conditioning)
    diffusion    cosine schedule, forward noising, ancestral sampling
    denoiser     encoder transformer and its training loop
    losses       the five weighted training loss terms
    evalsuite    feature extractors and R-precision/FID/Diversity/APD
    dataset      synthetic scene generator, manifests, loading
    cli          command-line driver
"""

__version__ = "0.1.0"

from . import (audio, autodiff, checkpoint, dataset, denoiser, diffusion,
               errors, evalsuite, gradcheck, losses, nn, optim, skeleton)

__all__ = ["audio", "autodiff", "checkpoint", "dataset", "denoiser",
           "diffusion", "errors", "evalsuite", "gradcheck", "losses", "nn",
           "optim", "skeleton", "__version__"]
