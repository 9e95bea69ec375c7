"""Rigorous certification and recovery pipeline for 2-D sparse deconvolution
with Gaussian-like point spread functions.

Submodules
----------
interval    outward-rounded interval arithmetic
kernels     convolution kernels (Gaussian, fluorescence microscopy fit, Airy)
bumpwave    bump/wave interpolation basis and its coefficients
envelope    radial step-function envelopes built by interval evaluation
hexgeom     hexagonal partition, one segment-to-cell distance (d_U is its
            point case) as array code
schur       block norm bounds, Schur chain, numeric certificates
certify     segment-based recovery certifier and parameter sweeps
solver      exact-recovery trials by rank or dual certificate; basis pursuit
experiments SVD conditioning, phase diagrams, command line front end
"""

__version__ = "0.1.0"
