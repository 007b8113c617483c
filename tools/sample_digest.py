"""SHA-256 digest of the sampler's orbit frames, to show that a change keeps their bits.

Run from the repository root:

    python tools/sample_digest.py [--save PATH.npz] [--against PATH.npz]

It samples the 21 seed-1 ``orbit_sample_cfg`` frames, one ``ddim_sample``
call each with that frame's triangular CFG strength, and prints the SHA-256
over every frame's output and its ``log_marginal`` at sigma = 0 under the
conditional mixture, in frame order.  The mixtures, schedule, guidance and
start states come from the benchmark's set-up code in ``bench/workloads.py``,
which it only reads.  To compare two commits, run this same file in a
checkout of each and diff the output.

``--save`` and ``--against`` work as in ``tools/render_digest.py``, whose
digest and comparison code this reuses: a run with ``--against`` adds, for
each array name, the largest |new - old| relative to the old array's largest
finite |entry|.
"""

import render_digest as RD  # puts src/ and bench/ on the import path
import workloads as W


def orbit_sample_cfg(d):
    workload = RD.bench_scene("orbit_sample_cfg")
    for frame in range(W.N_VIEWS):
        out = workload.op(frame)
        d.add("sample", out)
        d.add("log_marginal", workload.cond.log_marginal(out, 0.0))


if __name__ == "__main__":
    RD.run(lambda: [orbit_sample_cfg], __doc__.splitlines()[0])
