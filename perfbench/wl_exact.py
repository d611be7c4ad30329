"""exact: the exact engine, on fresh and on warm systems.

A round holds the jobs of two job lists:

- ``wl_cohomology``: each job builds a fresh TwistedLocalSystem for one
  (nerve, twist, ring) and computes H^k in every degree, with no reuse;
- ``wl_certify``: warm systems solve and certify seeded cocycles, run
  bockstein_dd and the lifting obstruction, reusing cached Smith forms.

Set-up builds both (the certify systems with their untimed warm-up
queries).  Each list keeps its own answer checks.
"""

from types import SimpleNamespace

import wl_certify
import wl_cohomology

PARTS = (wl_cohomology, wl_certify)


def setup(rng, ctx):
    parts = [part.setup(rng, ctx) for part in PARTS]
    sizes = {"computed": True,
             "nerve.simplices": sum(p.sizes["nerve.simplices"] for p in parts)}
    for part, state in zip(PARTS, parts):
        sizes[part.__name__[3:]] = state.sizes
    return SimpleNamespace(parts=parts, sizes=sizes)


def make_round(state, rng):
    return [job for part, sub in zip(PARTS, state.parts) for job in part.make_round(sub, rng)]


def round_check(group):
    """Universal coefficients across the cohomology jobs of a round (the
    certify jobs carry no key and have no cross-job check)."""
    return wl_cohomology.round_check([(i, rec) for i, rec in group if rec.job.key is not None])
