"""SHA-256 digest of the sampler's orbit frames, to show that a change keeps their bits.

Run from the repository root:

    python tools/sample_digest.py [--save PATH.npz] [--against PATH.npz]

It prints two lines.  ``orbit_sample_cfg`` samples the 21 seed-1
``orbit_sample_cfg`` frames, one ``ddim_sample`` call each with that frame's
triangular CFG strength, and hashes every frame's output and its
``log_marginal`` at sigma = 0 under the conditional mixture, in frame order.
The sampler steps a mixture's chain from its factors and calls neither
``posterior_mean`` nor ``guided``, so ``posterior_and_guided`` hashes those
two directly: at 5 noise levels of the schedule, down to its final 0, one
batch of points drawn about the null mixture's means at that level, and the
conditional and null posterior means and the guided blend of that batch.
The mixtures, schedule, guidance and start states come from the benchmark's
set-up code in ``bench/workloads.py``, which it only reads.  To compare two
commits, run this same file in a checkout of each and diff the output.

``--save`` and ``--against`` work as in ``tools/render_digest.py``, whose
digest and comparison code this reuses: a run with ``--against`` adds, for
each array name, the largest |new - old| relative to the old array's largest
finite |entry|.
"""

import numpy as np

import render_digest as RD  # puts src/ and bench/ on the import path
import workloads as W

# Steps of the 50-step schedule, from sigma_max down to the final sigma = 0, each with the
# frame whose start state and CFG strength it takes.
STEPS = (0, 12, 25, 40, 50)
FRAMES = (1, 5, 9, 13, 17)


def orbit_sample_cfg(d):
    workload = RD.bench_scene("orbit_sample_cfg")
    for frame in range(W.N_VIEWS):
        out = workload.op(frame)
        d.add("sample", out)
        d.add("log_marginal", workload.cond.log_marginal(out, 0.0))


def posterior_and_guided(d):
    workload = RD.bench_scene("orbit_sample_cfg")
    den = workload.denoiser
    null = den.mixtures[None]
    for step, frame in zip(STEPS, FRAMES):
        sigma = workload.schedule[step]
        x = (sigma / workload.schedule[0]) * workload.x_init[frame]
        x += null.means[np.arange(W.BATCH) % null.n_components]
        d.add("posterior_cond", den(x, sigma, W.COND_TOKEN))
        d.add("posterior_null", den(x, sigma))
        d.add("guided", den.guided(x, sigma, W.COND_TOKEN, workload.guidance.at(frame)))


if __name__ == "__main__":
    RD.run(lambda: [orbit_sample_cfg, posterior_and_guided], __doc__.splitlines()[0])
