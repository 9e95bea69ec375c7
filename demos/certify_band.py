#!/usr/bin/env python3
"""Walk through one certification: does separation Delta guarantee recovery?

Builds coarse envelopes for a single grid-spacing band, runs the certifier
at a few separations, and narrates what each stage concluded.  Coarse
resolution keeps this demo under a minute; the bounds are weaker than the
desk or published profiles but never unsound, so a "certified" verdict here
is still a proof.
"""

import numpy as np

from deconv2d.certify import CertifyConfig, certify_cell
from deconv2d.envelope import EnvelopeGridSpec, build_envelopes, zeta_band

K1 = 5              # grid-spacing band index
RESOLUTION = 6      # bins per unit length (published profile uses 40)
DELTAS = (2.0, 4.5, 5.5, 6.5)


def main():
    zlo, zhi = zeta_band(K1)
    print(f"band k1={K1}: grid spacing in [{zlo:.2f}, {zhi:.2f}]")
    print(f"building envelopes at resolution {RESOLUTION} ...")
    config = CertifyConfig(
        {K1: build_envelopes(EnvelopeGridSpec(k1=K1, tres=RESOLUTION,
                                              ures=RESOLUTION))})
    for delta in DELTAS:
        rep = certify_cell(delta, K1, config)
        print(f"\nDelta = {delta}")
        s = rep.schur
        if not all(s.conditions_hold):
            print("  the block-system norm bounds are too large: the Schur")
            print("  chain cannot even invert the interpolation system.")
            continue
        print(f"  coefficient bounds: |alpha| <= {s.alpha_inf:.4f}, "
              f"|beta|,|gamma| <= {s.beta_inf:.4f}, "
              f"min alpha >= {s.alpha_lb:.4f}")
        if rep.certified:
            print(f"  curvature controls Q < 1 out to u1 = {rep.u1:.3f},")
            print(f"  the gradient argument extends that to u2 = {rep.u2:.3f},")
            print(f"  and the segment value bounds cover [u2, {delta}].")
            print("  verdict: CERTIFIED - every signal with this separation")
            print("  is exactly recovered by l1 minimization.")
        else:
            print(f"  verdict: not certified (stage: {rep.stage})")
        segs = rep.segments
        if segs is not None:
            i = int(np.argmax(segs.q_ub))
            print(f"  worst segment Q upper bound: {segs.q_ub[i]:.4f} "
                  f"on [{segs.edges[i]:.2f}, {segs.edges[i + 1]:.2f}]")


if __name__ == "__main__":
    main()
