"""The benchmark's workloads: the argv each job passes to ``rtgmi.cli.main``
and the checks its outputs must pass.

A job is one or more CLI calls that share a master seed.  A pass runs every
job of the workload's panel once; later passes repeat the same inputs, so
each job's outputs must come back byte for byte.  The checks compare the
reports with oracles computed by separate routes, not with stored bytes, so
a change that alters the random streams still passes if its numbers hold.
"""

import math
import random
from dataclasses import dataclass

_SIM_COMMON = ("--constellation", "qpsk", "--snr-db", "-9.2",
               "--L", "3", "--K", "{K}", "--rate-fraction", "0.5",
               "--trials", "{trials}", "--gmi-K", "{gmi_K}",
               "--error-target", "0.05", "--predictor-order", "16")
_EST_MODEL = ("--model", "ar1", "--alpha", "0.99", "--constellation", "qpsk",
              "--snr-db", "0")


@dataclass(frozen=True)
class Workload:
    commands: tuple          # argv templates, one per CLI call of a job
    sizes: dict              # template fields for a measured run
    smoke_sizes: dict        # template fields for the smoke mode
    check: object            # (argvs, reports, oracles) -> list of problems
    fixed_seeds: tuple = ()  # master seeds of every pass; else one from --seed

    def jobs(self, seed, smoke=False):
        """[(master_seed, [argv, ...]), ...] for one pass, made from `seed`."""
        rng = random.Random(f"rtgmi-perfbench:{seed}")
        if self.fixed_seeds:
            seeds = rng.sample(self.fixed_seeds, len(self.fixed_seeds))
        else:
            seeds = [rng.randrange(1 << 31)]
        sizes = self.smoke_sizes if smoke else self.sizes
        return [(s, [[a.format(**sizes) for a in cmd] for cmd in self.commands])
                for s in seeds]


def flag(argv, name):
    return argv[argv.index(name) + 1]


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _halfwidth(p, n):
    # normal approximation with the variance floored at one pseudo-count
    return 1.96 * math.sqrt(max(p * (1.0 - p), (1.0 / n) * (1.0 - 1.0 / n)) / n)


def check_simulate(argvs, reports, oracles):
    """Accounting identities of a simulate report, re-derived from its parts."""
    argv, rep = argvs[0], reports[0]
    problems = []
    depth = int(flag(argv, "--L"))
    n = int(flag(argv, "--trials"))
    k = int(flag(argv, "--K"))
    fraction = float(flag(argv, "--rate-fraction"))
    snr = 10.0 ** (float(flag(argv, "--snr-db")) / 10.0)
    budget = float(flag(argv, "--error-target")) / depth
    if (rep["n_trials"], rep["interleave_depth"], rep["block_length"],
            rep["genie"]) != (n, depth, k, "--genie" in argv):
        problems.append("report does not echo trials, L, K and genie")
    if not _close(rep["snr_linear"], snr):
        problems.append("snr_linear is not the dB input converted")
    rhos = oracles.rho_sequence(argv, depth, snr)
    if not all(_close(a, b) for a, b in zip(rep["rho_linear"], rhos)) \
            or len(rep["rho_linear"]) != depth:
        problems.append("rho_linear differs from a direct rho_sequence")
    errs = rep["per_psc_block_error"]
    targets = rep["rate_target_nats"]
    counts = [p * n for p in errs]
    if errs[0] != 0.0 or any(abs(c - round(c)) > 1e-6 or not 0 <= c <= n
                             for c in counts):
        problems.append("block errors are not whole counts out of the trials")
    for l in range(depth):
        gmi = rep["gmi_nats"][l]
        if not _close(targets[l], fraction * gmi):
            problems.append(f"rate target {l} is not rate_fraction * gmi")
        size = 0 if l == 0 else max(int(round(math.exp(fraction * gmi * k))), 1)
        if rep["codebook_sizes"][l] != size:
            problems.append(f"codebook size {l} is not round(exp(f g K))")
        if not _close(rep["per_psc_ci"][l], _halfwidth(errs[l], n)):
            problems.append(f"per-subchannel CI {l} is not the binomial width")
        within = errs[l] <= budget + rep["per_psc_ci"][l]
        if rep["budget_met"][l] != within:
            problems.append(f"budget flag {l} disagrees with error and CI")
    achieved = sum(t * (1.0 - p) for t, p in zip(targets, errs)) / depth
    if not _close(rep["achieved_rate_nats"], achieved):
        problems.append("achieved rate is not the error-weighted target mean")
    overall = rep["overall_error"]
    failed_trials = round(overall * n)
    if not (max(errs) - 1e-12 <= overall <= min(sum(errs), 1.0) + 1e-12) \
            or not _close(rep["overall_ci"], _halfwidth(overall, n)):
        problems.append("overall error is outside [max, sum] of subchannels")
    # a propagation event is a failed trial with a second failed subchannel
    if not 0 <= rep["propagation_events"] <= round(sum(counts)) - failed_trials:
        problems.append("propagation events exceed the repeated errors")
    return problems


def check_estimate(argvs, reports, oracles):
    """GMI at mu = -1 against quadrature capacity; ladder rho against a direct
    rho_sequence."""
    gmi_argv, ladder_argv = argvs
    gmi, ladder = reports
    problems = []
    rho = 10.0 ** (float(flag(gmi_argv, "--snr-db")) / 10.0)
    order = gmi["constellation_order"]
    capacity = oracles.quadrature(order, rho)
    # criterion 2 allows the sum of two 95% half-widths; the quadrature has
    # no sampling error, so the estimate's half-width counts twice
    if abs(gmi["g_at_minus_one_nats"] - capacity) > 2.0 * gmi["g_at_minus_one_ci_nats"]:
        problems.append(f"g(-1) {gmi['g_at_minus_one_nats']!r} is not within "
                        f"2 CI of quadrature capacity {capacity!r}")
    if gmi["block_length"] != int(flag(gmi_argv, "--K")) \
            or not 0.0 <= gmi["gmi_nats"] <= math.log(order) \
            or gmi["gmi_nats"] < gmi["g_at_minus_one_nats"] - 1e-12:
        problems.append("gmi is not the supremum over mu within [0, log J]")
    depth = int(flag(ladder_argv, "--L"))
    rhos = oracles.rho_sequence(ladder_argv, depth, rho)
    if len(ladder["rho_linear"]) != depth \
            or not all(_close(a, b) for a, b in zip(ladder["rho_linear"], rhos)):
        problems.append("ladder rho_linear differs from a direct rho_sequence")
    caps = ladder["capacity_nats"]
    if caps[0] != 0.0 or not all(0.0 <= c <= math.log(order) for c in caps) \
            or not _close(ladder["l_average_nats"], sum(caps) / depth):
        problems.append("ladder capacities or their average are inconsistent")
    return problems


class Oracles:
    """Reference values, computed once per run outside the timed passes."""

    def __init__(self, rtgmi):
        self._rtgmi = rtgmi
        self._quadrature = {}

    def quadrature(self, order, rho):
        key = (order, rho)
        if key not in self._quadrature:
            self._quadrature[key] = self._rtgmi.psk_capacity_quadrature(order, rho)
        return self._quadrature[key]

    def rho_sequence(self, argv, depth, snr):
        if flag(argv, "--model") == "ar1":
            model = self._rtgmi.Ar1Fading(float(flag(argv, "--alpha")))
        else:
            model = self._rtgmi.ClarkeFading(float(flag(argv, "--doppler")))
        return self._rtgmi.rho_sequence(model, depth, snr,
                                        int(flag(argv, "--predictor-order")))


# Codebook sizes are round(exp(f * g * K)) with g a 5e4-sample GMI estimate,
# so total codebook rows swing from 1.1k to 5.2k between master seeds and a
# simulate job's time with them.  Both simulators therefore run the same
# fixed panel of master seeds (the criterion-7 companion test's seed and the
# next two); --seed only orders it, so the spread stays timing noise.
SIM_PANEL = (2026, 2027, 2028)

WORKLOADS = {
    # decision-directed criterion-7 companion point: decoding and codebook
    # draws dominate, and decision errors feed back into prediction
    "simulate_dd": Workload(
        commands=(("simulate", "--model", "ar1", "--alpha", "0.99")
                  + _SIM_COMMON,),
        sizes={"K": 240, "trials": 600, "gmi_K": 50_000},
        smoke_sizes={"K": 24, "trials": 4, "gmi_K": 2_000},
        check=check_simulate, fixed_seeds=SIM_PANEL),
    # Clarke fading with genie feedback: the Toeplitz Cholesky rebuilt every
    # trial dominates, decoding is minor
    "simulate_clarke": Workload(
        commands=(("simulate", "--model", "clarke", "--doppler", "0.01")
                  + _SIM_COMMON + ("--genie",),),
        sizes={"K": 240, "trials": 100, "gmi_K": 50_000},
        smoke_sizes={"K": 24, "trials": 3, "gmi_K": 2_000},
        check=check_simulate, fixed_seeds=SIM_PANEL),
    # rate estimation: one long correlated GMI block, then a Monte Carlo
    # capacity ladder; no decoder, no codebooks.  Its work does not depend
    # on the master seed, so that comes from --seed
    "estimate": Workload(
        commands=(("gmi",) + _EST_MODEL + ("--K", "{K}"),
                  ("ladder",) + _EST_MODEL + ("--L", "{L}", "--samples", "{samples}",
                                               "--predictor-order", "16")),
        sizes={"K": 1_000_000, "L": 32, "samples": 400_000},
        smoke_sizes={"K": 20_000, "L": 4, "samples": 20_000},
        check=check_estimate),
}
