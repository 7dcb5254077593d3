import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.stats import kstest

from striplab import evolution as ev
from striplab import geometry as geo
from striplab import oracle
from striplab import spectral as sp
from striplab import stochastic as st
from striplab.errors import (
    BadCheckpoint,
    BadStart,
    CheckpointMissing,
    InsufficientSignal,
    StepTooLarge,
    TooFewSurvivors,
)


@pytest.fixture(scope="module")
def flat_sde():
    a = math.pi / 2
    m = geo.solve_jacobi(geo.zero_profile(), geo.StripGeometry(a=a, L=30.0, n1=60, n2=16))
    return a, st.sde_from_metric(m)


def test_flat_fields_exact(flat_sde):
    a, sde = flat_sde
    b1, b2, s1 = sde.fields(np.array([0.0, 5.0]), np.array([0.2, -1.0]))
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
    assert np.all(s1 == math.sqrt(2.0))


def test_ruled_drift_formula_value():
    # theta' = 1 at the center: at x2 = 1, f = sqrt(2), d2f = 1/sqrt(2),
    # so the transverse drift is d2f / f = 1/2 and sigma1 = sqrt(2)/f = 1
    prof = geo.ruled_profile(1.0, 4.0)
    m = geo.ruled_strip(prof, geo.StripGeometry(a=1.2, L=8.0, n1=640, n2=480))
    sde = st.sde_from_metric(m)
    b1, b2, s1 = sde.fields(np.array([0.0]), np.array([1.0]))
    assert b2[0] == pytest.approx(0.5, abs=1e-5)
    assert s1[0] == pytest.approx(1.0, abs=1e-5)
    assert b1[0] == pytest.approx(0.0, abs=1e-9)  # even profile, axis column


def test_fields_exactly_flat_outside_support():
    prof = geo.ruled_profile(0.5, 3.0)
    m = geo.ruled_strip(prof, geo.StripGeometry(a=0.8, L=12.0, n1=120, n2=24))
    sde = st.sde_from_metric(m)
    b1, b2, s1 = sde.fields(np.array([6.0, -8.0]), np.array([0.5, -0.3]))
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0) and np.all(s1 == math.sqrt(2.0))


def test_fields_flat_outside_support_whatever_the_table():
    # a table that is nowhere flat, so only the support decides where fields are flat
    x1 = np.linspace(-4.0, 4.0, 41)
    x2 = np.linspace(-1.0, 1.0, 9)
    table = np.random.default_rng(5).uniform(0.5, 2.0, (3, x1.size, x2.size))
    sde = st.SdeSpec(a=1.0, flat=False, support=2.0, x1=x1, x2=x2, table=table)
    p1 = np.array([-6.0, -2.5, -1.3, 0.0, 1.7, 2.5, 3.9])
    p2 = np.linspace(-0.9, 0.9, p1.size)
    b1, b2, s1 = sde.fields(p1, p2)
    out = np.abs(p1) > sde.support
    assert np.all(b1[out] == 0.0) and np.all(b2[out] == 0.0)
    assert np.all(s1[out] == math.sqrt(2.0))
    v1, v2, vf = sde._bilinear(p1[~out], p2[~out])
    assert np.array_equal(b1[~out], v1) and np.array_equal(b2[~out], v2)
    assert np.array_equal(s1[~out], math.sqrt(2.0) * vf)


def test_simulation_reproducible_bitwise(flat_sde, ruled_sde):
    cases = [
        (flat_sde[1], dict(x0=(0.0, 0.0), t_max=0.5, dt=1e-3, n_paths=5000, seed=99,
                           checkpoints=[0.25, 0.5])),
        # curved fields over two chunks, so both streams and their deaths are covered
        (ruled_sde, dict(x0=(1.0, 0.3), t_max=0.25, dt=0.0025, n_paths=st._CHUNK + 300,
                         seed=99, checkpoints=[0.1, 0.25])),
    ]
    for sde, kw in cases:
        e1 = st.simulate_killed(sde, **kw)
        e2 = st.simulate_killed(sde, **kw)
        assert np.array_equal(e1.kill_time, e2.kill_time)
        assert np.array_equal(e1.positions, e2.positions)


def _reference_bilinear(sde, table, p1, p2):
    h1 = sde.x1[1] - sde.x1[0]
    h2 = sde.x2[1] - sde.x2[0]
    s = np.clip((p1 - sde.x1[0]) / h1, 0.0, sde.x1.size - 1.001)
    t = np.clip((p2 - sde.x2[0]) / h2, 0.0, sde.x2.size - 1.001)
    i = s.astype(np.int64)
    j = t.astype(np.int64)
    fs = s - i
    ft = t - j
    return (
        table[i, j] * (1 - fs) * (1 - ft)
        + table[i + 1, j] * fs * (1 - ft)
        + table[i, j + 1] * (1 - fs) * ft
        + table[i + 1, j + 1] * fs * ft
    )


def _reference_fields(sde, p1, p2):
    sq2 = math.sqrt(2.0)
    b1 = np.zeros_like(p1)
    b2 = np.zeros_like(p1)
    s1 = np.full_like(p1, sq2)
    if sde.flat:
        return b1, b2, s1
    inside = np.abs(p1) <= sde.support
    if inside.any():
        q1, q2 = p1[inside], p2[inside]
        b1[inside] = _reference_bilinear(sde, sde.table[0], q1, q2)
        b2[inside] = _reference_bilinear(sde, sde.table[1], q1, q2)
        s1[inside] = sq2 * _reference_bilinear(sde, sde.table[2], q1, q2)
    return b1, b2, s1


def _reference_simulate(sde, x0, t_max, dt, n_paths, seed, checkpoints, bridge=True):
    """The straightforward loop: every path of a chunk is stepped to t_max,
    dead ones included, and each field is interpolated on its own; random
    numbers are drawn for the paths still alive. With ``bridge=False`` a path
    is killed only when a step leaves the strip."""
    a, sq2 = sde.a, math.sqrt(2.0)
    n_steps = int(round(t_max / dt)) if t_max > 0 else 0
    check_steps = np.array([min(int(round(t / dt)), n_steps) for t in checkpoints])
    positions = np.empty((len(check_steps), n_paths, 2), dtype=np.float32)
    kill_time = np.full(n_paths, np.inf)
    sqdt = math.sqrt(dt)
    for c0 in range(0, n_paths, st._CHUNK):
        c1 = min(c0 + st._CHUNK, n_paths)
        m = c1 - c0
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(c0 // st._CHUNK,)))
        )
        p1 = np.full(m, float(x0[0]))
        p2 = np.full(m, float(x0[1]))
        alive = np.ones(m, dtype=bool)
        ktime = np.full(m, np.inf)
        for ci in np.flatnonzero(check_steps == 0):
            positions[ci, c0:c1, 0] = p1
            positions[ci, c0:c1, 1] = p2
        for step in range(1, n_steps + 1):
            # draws for the live paths only, in ascending path order
            z = np.zeros((m, 2))
            z[alive] = rng.standard_normal((alive.sum(), 2))
            u = np.ones(m)
            u[alive] = rng.random(alive.sum())
            b1, b2, s1 = _reference_fields(sde, p1, p2)
            q1 = p1 + b1 * dt + s1 * sqdt * z[:, 0]
            q2 = p2 + b2 * dt + sq2 * sqdt * z[:, 1]
            crossed = np.abs(q2) >= a
            if bridge:
                d0u, d1u = a - p2, a - q2
                d0l, d1l = a + p2, a + q2
                with np.errstate(over="ignore"):
                    pu = np.exp(-2.0 * d0u * d1u / (2.0 * dt))
                    pl = np.exp(-2.0 * d0l * d1l / (2.0 * dt))
                pkill = np.where(crossed, 1.0, pu + pl - pu * pl)
            else:
                pkill = crossed.astype(float)
            dead_now = alive & (u < pkill)
            ktime[dead_now] = step * dt
            alive &= ~dead_now
            p1 = np.where(alive, q1, p1)
            p2 = np.where(alive, q2, p2)
            for ci in np.flatnonzero(check_steps == step):
                positions[ci, c0:c1, 0] = p1
                positions[ci, c0:c1, 1] = p2
        kill_time[c0:c1] = ktime
    return kill_time, positions


@pytest.fixture(scope="module")
def ruled_sde():
    m = geo.ruled_strip(
        geo.ruled_profile(0.6, 4.0), geo.StripGeometry(a=1.0, L=12.0, n1=120, n2=24)
    )
    return st.sde_from_metric(m)


@pytest.mark.parametrize("where", ["inside", "straddling", "outside"])
def test_fields_bit_identical_to_reference(where, ruled_sde):
    rng = np.random.default_rng(4)
    lo, hi = {
        "inside": (-ruled_sde.support, ruled_sde.support),
        "straddling": (-1.5 * ruled_sde.support, 1.5 * ruled_sde.support),
        "outside": (ruled_sde.support + 1e-9, 2.0 * ruled_sde.support),
    }[where]
    p1 = rng.uniform(lo, hi, 5000)
    if where == "outside":
        p1 *= rng.choice([-1.0, 1.0], p1.size)
    p2 = rng.uniform(-ruled_sde.a, ruled_sde.a, p1.size)
    inside = np.abs(p1) <= ruled_sde.support
    assert {"inside": inside.all(), "straddling": 0 < inside.sum() < inside.size,
            "outside": not inside.any()}[where]
    for got, want in zip(ruled_sde.fields(p1, p2), _reference_fields(ruled_sde, p1, p2)):
        assert np.array_equal(got, want)


_FLAT_DT_MAX = (math.pi / 2) ** 2 / 100.0  # the largest dt the flat_sde strip allows

_IDENTITY_CASES = {
    "flat": ("flat", dict(x0=(0.0, 0.0), t_max=0.3, dt=1e-3, n_paths=3000, seed=99,
                          checkpoints=[0.1, 0.3])),
    "ruled": ("ruled", dict(x0=(1.0, 0.3), t_max=0.5, dt=0.0025, n_paths=4000, seed=5,
                            checkpoints=[0.1, 0.5])),
    "checkpoints-at-0-and-t_max": ("ruled", dict(x0=(-2.0, -0.4), t_max=0.4, dt=0.0025,
                                                 n_paths=2000, seed=8,
                                                 checkpoints=[0.0, 0.2, 0.4])),
    "partial-second-chunk": ("ruled", dict(x0=(0.0, 0.0), t_max=0.025, dt=0.0025,
                                           n_paths=st._CHUNK + 300, seed=3,
                                           checkpoints=[0.0, 0.025])),
    "all-dead-before-last-checkpoint": ("flat", dict(x0=(0.0, 0.5), t_max=20.0, dt=0.02,
                                                     n_paths=40, seed=1,
                                                     checkpoints=[1.0, 5.0, 20.0])),
    # starts near a wall, so many path-steps take the bridge formula
    "ruled-near-a-wall": ("ruled", dict(x0=(0.5, 0.9), t_max=0.25, dt=0.0025, n_paths=3000,
                                        seed=13, checkpoints=[0.05, 0.25])),
    "flat-near-a-wall-largest-dt": ("flat", dict(x0=(0.0, 1.4), t_max=30 * _FLAT_DT_MAX,
                                                 dt=_FLAT_DT_MAX, n_paths=3000, seed=14,
                                                 checkpoints=[5 * _FLAT_DT_MAX,
                                                              30 * _FLAT_DT_MAX])),
}


@pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
def test_live_set_loop_bit_identical_to_reference(case, flat_sde, ruled_sde):
    which, kw = _IDENTITY_CASES[case]
    sde = flat_sde[1] if which == "flat" else ruled_sde
    ens = st.simulate_killed(sde, **kw)
    kill_time, positions = _reference_simulate(sde, **kw)
    assert np.array_equal(ens.kill_time, kill_time)
    assert np.array_equal(ens.positions, positions)
    if case == "all-dead-before-last-checkpoint":
        # the chunk ends early, so the last checkpoints come from frozen positions
        assert ens.kill_time.max() < kw["checkpoints"][-2]


def _full_kill(p2, q2, u, a, dt):
    """The bridge kill evaluated on every path."""
    crossed = np.abs(q2) >= a
    with np.errstate(over="ignore"):
        pu = np.exp(-2.0 * (a - p2) * (a - q2) / (2.0 * dt))
        pl = np.exp(-2.0 * (a + p2) * (a + q2) / (2.0 * dt))
    return u < np.where(crossed, 1.0, pu + pl - pu * pl)


@pytest.mark.parametrize("a, dt", [(1.0, 1.0 / 100.0), (1.0, 0.0025), (math.pi / 2, 0.005),
                                   (math.pi / 2, (math.pi / 2) ** 2 / 100.0)])
def test_bridge_kill_only_where_a_path_can_die_matches_the_full_formula(a, dt):
    edge = a - math.sqrt(st._NO_KILL * dt)
    # exactly at distance sqrt(c dt) from a wall, one ulp either side, well
    # inside, on a wall and past it
    levels = [0.0, 0.3 * edge, np.nextafter(edge, 0.0), edge, np.nextafter(edge, a),
              0.5 * (edge + a), np.nextafter(a, 0.0), a, a + 1e-3, a + 0.5]
    levels = np.array(levels + [-x for x in levels])
    uniforms = np.array([0.0, 2.0**-53, 2.0**-52, 1e-12, 1e-3, 0.5, 1.0 - 2.0**-53])
    p2, q2, u = (g.ravel() for g in np.meshgrid(levels[np.abs(levels) < a], levels, uniforms))
    dead = st._bridge_dead(p2, q2, u, a, dt)
    assert np.array_equal(dead, _full_kill(p2, q2, u, a, dt))
    # a step that leaves the strip always kills; u = 0 kills wherever the
    # bridge probability is positive, and 2**-53 no path that stays far
    # from both walls
    assert dead[np.abs(q2) >= a].all()
    far = (np.abs(p2) <= edge) & (np.abs(q2) <= edge)
    assert dead[(u == 0.0) & far].any()
    assert not dead[(u > 0.0) & far].any()


def test_uniform_draws_are_multiples_of_2_to_the_minus_53():
    """The bridge kill's cut rests on this: a nonzero uniform is at least 2**-53."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=78, spawn_key=(0,)))
    )
    u = rng.random(10**5) * 2**53
    assert np.array_equal(u, np.floor(u))


@pytest.mark.parametrize("checkpoints", [[0.0, 2.0], [2.0, 0.0], [2.0]])
def test_box_warning_reads_the_survivors_at_t_max(flat_sde, checkpoints):
    """The share of survivors beyond box_limit is taken at t_max, whatever
    order the checkpoints come in."""
    _, sde = flat_sde
    kw = dict(x0=(0.0, 0.0), t_max=2.0, dt=0.01, n_paths=2000, seed=3)
    with pytest.warns(UserWarning) as record:
        ens = st.simulate_killed(sde, checkpoints=checkpoints, box_limit=0.5, **kw)
    alive = ens.alive_at(2.0)
    x1 = ens.positions[ens.checkpoint_index(2.0), alive, 0].astype(float)
    share = np.count_nonzero(np.abs(x1) > 0.5) / alive.sum()
    assert [str(w.message) for w in record] == [
        f"{share:.2%} of surviving paths left the bookkeeping box"
    ]


def test_zero_horizon_ensemble(flat_sde):
    a, sde = flat_sde
    ens = st.simulate_killed(sde, (0.3, 0.2), t_max=0.0, dt=1e-3, n_paths=64, seed=1)
    assert np.all(~np.isfinite(ens.kill_time))
    assert np.allclose(ens.positions[0, :, 0], 0.3)
    assert np.allclose(ens.positions[0, :, 1], 0.2)


def test_preconditions(flat_sde):
    a, sde = flat_sde
    with pytest.raises(BadStart):
        st.simulate_killed(sde, (0.0, a), t_max=0.1, dt=1e-3, n_paths=8, seed=0)
    with pytest.raises(StepTooLarge):
        st.simulate_killed(sde, (0.0, 0.0), t_max=0.1, dt=1.0, n_paths=8, seed=0)
    ens = st.simulate_killed(sde, (0.0, 0.0), t_max=0.2, dt=1e-3, n_paths=8, seed=0)
    with pytest.raises(CheckpointMissing):
        st.survival_estimate(ens, None, 0.1)


@pytest.mark.parametrize(
    "change, error, named",
    [
        (dict(checkpoints=[-1.0]), BadCheckpoint, "checkpoint t = -1.0"),
        (dict(t_max=-1.0), BadCheckpoint, "checkpoint t = -1.0"),
        (dict(checkpoints=[math.nan]), BadCheckpoint, "checkpoint t = nan"),
        (dict(dt=math.nan), ValueError, "dt must be positive and finite, not nan"),
        (dict(dt=-0.001), ValueError, "dt must be positive and finite, not -0.001"),
        (dict(dt=0.0), ValueError, "dt must be positive and finite, not 0.0"),
        (dict(n_paths=0), ValueError, "n_paths must be at least 1, not 0"),
        (dict(x0=(math.nan, 0.0)), BadStart, r"x0 = \(nan, 0.0\)"),
        (dict(x0=(0.0, math.inf)), BadStart, r"x0 = \(0.0, inf\)"),
        (dict(t_max=math.inf), BadCheckpoint, "checkpoint t = inf"),
        (dict(t_max=math.inf, checkpoints=[0.05]), ValueError,
         "t_max must be nonnegative and finite, not inf"),
        (dict(t_max=-1.0, checkpoints=[0.05]), ValueError,
         "t_max must be nonnegative and finite, not -1.0"),
        (dict(t_max=math.nan, checkpoints=[0.05]), ValueError,
         "t_max must be nonnegative and finite, not nan"),
        (dict(checkpoints=[0.05, 0.5]), BadCheckpoint, "checkpoint t = 0.5 is after t_max = 0.1"),
        (dict(checkpoints=[0.1 + 2e-9]), BadCheckpoint, "is after t_max = 0.1"),
        # 0.1 / 0.006 rounds to 17 steps, which would end at t = 0.102
        (dict(dt=0.006, checkpoints=[0.06]), CheckpointMissing,
         "t_max = 0.1 is not a multiple of dt = 0.006"),
        (dict(checkpoints=[]), BadCheckpoint, r"checkpoints = \[\] lists no time"),
    ],
    ids=["negative-checkpoint", "negative-t_max", "nan-checkpoint", "nan-dt", "negative-dt",
         "zero-dt", "no-paths", "nan-x0", "infinite-x0", "infinite-t_max",
         "infinite-t_max-with-checkpoints", "negative-t_max-with-checkpoints",
         "nan-t_max-with-checkpoints", "checkpoint-after-t_max", "checkpoint-past-the-slack",
         "t_max-off-the-dt-lattice", "no-checkpoints"],
)
def test_simulate_killed_rejects_bad_inputs_before_any_step(flat_sde, monkeypatch, change, error, named):
    _, sde = flat_sde
    monkeypatch.setattr(st.SdeSpec, "fields", lambda *args: pytest.fail("a step was taken"))
    kw = dict(x0=(0.0, 0.0), t_max=0.1, dt=1e-3, n_paths=8, seed=0) | change
    with pytest.raises(error, match=named):
        st.simulate_killed(sde, **kw)


def test_a_checkpoint_within_the_slack_of_t_max_is_recorded_at_t_max(flat_sde):
    _, sde = flat_sde
    kw = dict(x0=(0.0, 0.0), t_max=0.1, dt=1e-3, n_paths=64, seed=0)
    ens = st.simulate_killed(sde, checkpoints=[0.05, 0.1 + 5e-10], **kw)
    ref = st.simulate_killed(sde, checkpoints=[0.05, 0.1], **kw)
    assert np.array_equal(ens.checkpoint_times, ref.checkpoint_times)
    assert np.array_equal(ens.positions, ref.positions)
    assert np.array_equal(ens.kill_time, ref.kill_time)


def test_survival_against_series(flat_sde):
    a, sde = flat_sde
    ens = st.simulate_killed(sde, (0.0, 0.0), t_max=1.0, dt=1e-3, n_paths=40000, seed=5)
    est = st.survival_estimate(ens, None, 1.0)
    exact, _ = oracle.flat_survival((0.0, 0.0), None, 1.0, a)
    assert abs(est.probability - exact) <= 3.0 * est.half_width
    assert est.half_width > 0


def test_survival_box_against_series(flat_sde):
    a, sde = flat_sde
    B = ((-1.0, 1.0), (-0.5, 0.9))
    ens = st.simulate_killed(sde, (0.0, 0.0), t_max=0.8, dt=1e-3, n_paths=40000,
                             seed=6, checkpoints=[0.8])
    est = st.survival_estimate(ens, B, 0.8)
    exact, _ = oracle.flat_survival((0.0, 0.0), B, 0.8, a)
    assert abs(est.probability - exact) <= 3.5 * est.half_width


def test_disjoint_box_zero(flat_sde):
    a, sde = flat_sde
    ens = st.simulate_killed(sde, (0.0, 0.0), t_max=0.2, dt=1e-3, n_paths=2000, seed=2)
    est = st.survival_estimate(ens, ((100.0, 120.0), (-a, a)), 0.2)
    assert est.probability == 0.0
    assert est.half_width > 0


def test_survivors_inside_walls_and_monotone(flat_sde):
    a, sde = flat_sde
    ens = st.simulate_killed(
        sde, (0.0, 0.0), t_max=1.0, dt=2e-3, n_paths=20000, seed=3,
        checkpoints=[0.25, 0.5, 1.0],
    )
    alive_counts = [ens.alive_at(t).sum() for t in [0.25, 0.5, 1.0]]
    assert alive_counts[0] >= alive_counts[1] >= alive_counts[2]
    for ci, t in enumerate(ens.checkpoint_times):
        alive = ens.alive_at(t)
        assert np.all(np.abs(ens.positions[ci, alive, 1]) < a)


def test_longitudinal_marginal_gaussian(flat_sde):
    # surviving longitudinal positions are N(0, 2t) under the doubled clock
    a, sde = flat_sde
    t = 1.0
    ens = st.simulate_killed(sde, (0.0, 0.0), t_max=t, dt=1e-3, n_paths=30000, seed=8)
    alive = ens.alive_at(t)
    x1 = ens.positions[0, alive, 0].astype(float)
    stat = kstest(x1, "norm", args=(0.0, math.sqrt(2 * t)))
    assert stat.pvalue > 0.01


def _naive_survival(sde, x0, t_max, dt, n_paths, seed):
    """Fraction of paths alive at t_max when a path is killed only on leaving
    the strip at a step, with no bridge crossing check: the reference loop
    with its correction switched off."""
    kill_time, _ = _reference_simulate(sde, x0, t_max, dt, n_paths, seed, [t_max], bridge=False)
    return np.count_nonzero(kill_time > t_max + 1e-12) / n_paths


def test_bridge_correction_halves_bias(flat_sde):
    a, sde = flat_sde
    exact, _ = oracle.flat_survival((0.0, 0.0), None, 0.5, a)
    kw = dict(x0=(0.0, 0.0), t_max=0.5, dt=0.02, n_paths=200000, seed=12)
    corrected = st.simulate_killed(sde, **kw)
    b_naive = _naive_survival(sde, **kw) - exact
    b_corr = st.survival_estimate(corrected, None, 0.5).probability - exact
    assert abs(b_corr) <= 0.5 * abs(b_naive)
    assert b_naive > 0  # skipping the crossing check overestimates survival


@pytest.mark.slow
def test_weak_order_in_dt(flat_sde):
    # Gobet (2000): discretely monitored killing biases survival upward at
    # order 1/2 in dt; the bridge correction removes that leading term.
    a, sde = flat_sde
    t = 0.5
    exact, _ = oracle.flat_survival((0.0, 0.0), None, t, a)
    dts = np.array([0.02, 0.01, 0.005, 0.0025])
    kw = dict(x0=(0.0, 0.0), t_max=t, n_paths=400000, seed=31)
    b_naive, b_corr = [], []
    for dt in dts:
        b_naive.append(_naive_survival(sde, dt=dt, **kw) - exact)
        ens = st.simulate_killed(sde, dt=dt, **kw)
        b_corr.append(st.survival_estimate(ens, None, t).probability - exact)
    b_naive, b_corr = np.array(b_naive), np.array(b_corr)
    assert np.all(b_naive > 0)
    order = np.polyfit(np.log(dts), np.log(b_naive), 1)[0]
    assert 0.35 <= order <= 0.65
    assert np.all(np.abs(b_corr) < b_naive)


def test_conditional_distribution_point_mass(flat_sde):
    a, sde = flat_sde
    ens = st.simulate_killed(sde, (0.4, 0.1), t_max=0.0, dt=1e-3, n_paths=500, seed=4)
    H, e1, e2 = st.conditional_distribution(
        ens, 0.0, (np.linspace(-2, 2, 9), np.linspace(-a, a, 9))
    )
    assert H.sum() == pytest.approx(1.0, abs=1e-12)
    assert H.max() == pytest.approx(1.0, abs=1e-12)


def test_conditional_distribution_needs_survivors(flat_sde):
    a, sde = flat_sde
    ens = st.simulate_killed(sde, (0.0, 0.0), t_max=0.1, dt=1e-3, n_paths=50, seed=4)
    with pytest.raises(TooFewSurvivors):
        st.conditional_distribution(ens, 0.1, (np.linspace(-2, 2, 5), np.linspace(-a, a, 5)))


def test_flat_pointwise_slope_moderate_paths(flat_sde):
    a, sde = flat_sde
    lattice = [1.5, 2.0, 3.0, 4.0, 5.0, 6.0]
    ens = st.simulate_killed(
        sde, (0.0, 0.0), t_max=6.0, dt=0.02, n_paths=150000, seed=11, checkpoints=lattice
    )
    B = ((-0.5, 0.5), (-a, a))
    fit = st.pointwise_rate([st.survival_estimate(ens, B, t) for t in lattice], 1.0)
    assert -0.75 < fit.slope < -0.3


def test_pointwise_rate_on_an_exact_law():
    """On estimates p(t) = C t^s exp(-t) the slope is s and its stderr is the
    delta-method one, sqrt(inv(X^T W X)[1, 1]) with W = n p / (1 - p)."""
    s, n = -0.75, 10**9
    t = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0])
    p = 0.3 * t**s * np.exp(-t)
    estimates = [st.SurvivalEstimate(probability=pk, half_width=0.0, t=tk, n_paths=n)
                 for tk, pk in zip(t, p)]
    fit = st.pointwise_rate(estimates, 1.0)
    assert fit.slope == pytest.approx(s, abs=1e-10)
    X = np.column_stack([np.ones_like(t), np.log(t)])
    W = np.diag(n * p / (1.0 - p))
    assert fit.stderr == pytest.approx(math.sqrt(np.linalg.inv(X.T @ W @ X)[1, 1]), rel=1e-10)


def test_pointwise_rate_drops_an_estimate_of_probability_one():
    """An estimate of probability 1 has no log variance to weigh by, so it is
    unusable like one whose interval touches zero: the fit is the one without
    it, with no warning, and it does not count toward the six points."""
    t = np.array([1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
    p = 0.3 * t**-0.75 * np.exp(-t)
    estimates = [st.SurvivalEstimate(probability=pk, half_width=0.0, t=tk, n_paths=10**6)
                 for tk, pk in zip(t, p)]
    certain = st.SurvivalEstimate(probability=1.0, half_width=1e-5, t=0.5, n_paths=10**6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = st.pointwise_rate([certain, *estimates], 1.0)
    assert fit == st.pointwise_rate(estimates, 1.0)
    assert math.isfinite(fit.slope) and math.isfinite(fit.stderr)
    with pytest.raises(InsufficientSignal, match="only 5 estimates"):
        st.pointwise_rate([certain, *estimates[1:]], 1.0)


def test_yaglom_contraction_toward_ground_state():
    # positively curved strip: the conditioned longitudinal marginal moves
    # toward the ground-state profile as time grows
    a = 1.0
    prof = geo.gaussian_bump(amplitude=0.45, width=2.0, support_radius=8.0)
    geom = geo.StripGeometry(a=a, L=24.0, n1=240, n2=24)
    m = geo.solve_jacobi(prof, geom)
    pair = sp.assemble_hk(m)
    res = sp.lowest_eigenpairs(pair, k=1)
    full = np.zeros(pair.grid.x1.size * pair.grid.x2.size)
    full[pair.grid.keep] = res.eigenvectors[:, 0]
    phi0 = full.reshape(pair.grid.shape)
    # f-weighted longitudinal marginal of the quasi-stationary profile
    h2 = m.x2[1] - m.x2[0]
    marg = (phi0 * m.f).sum(axis=1) * h2
    marg = np.maximum(marg, 0.0)
    edges = np.linspace(-8.0, 8.0, 17)
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = np.interp(centers, m.x1, marg)
    target /= target.sum()

    sde = st.sde_from_metric(m)
    ens = st.simulate_killed(
        sde, (0.0, 0.0), t_max=2.5, dt=0.005, n_paths=150000, seed=17,
        checkpoints=[0.5, 2.5],
    )
    dists = []
    for t in [0.5, 2.5]:
        H, _, _ = st.conditional_distribution(ens, t, (edges, np.linspace(-a, a, 2)))
        dists.append(np.abs(H[:, 0] - target).sum())
    assert dists[1] < 0.75 * dists[0]


def test_occupation_measure_matches_pde_on_curved_strip():
    # mandatory guard for the drift derivation: killed-diffusion expectation
    # of a smooth observable against the assembled weak form's evolution
    a = 1.0
    prof = geo.ruled_profile(0.6, 4.0)
    geom = geo.StripGeometry(a=a, L=12.0, n1=480, n2=80)
    m = geo.ruled_strip(prof, geom)
    pair = sp.assemble_hk(m)

    def smooth_bump(x, lo, hi):
        s = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        return np.sin(math.pi * s) ** 2

    x1g = pair.grid.restrict(pair.grid.x1[:, None])
    x2g = pair.grid.restrict(pair.grid.x2)
    u0v = smooth_bump(x1g, 0.0, 2.0) * smooth_bump(x2g, -0.4, 0.5)
    u0 = ev.HeatState(u=u0v, t=0.0, norm_f=1.0)
    t_star = 0.75
    tr = ev.evolve(pair, u0, [t_star], dt=0.002, keep_states=True)
    full = np.zeros(pair.grid.x1.size * pair.grid.x2.size)
    full[pair.grid.keep] = tr.states[-1].u
    U = full.reshape(pair.grid.shape)
    x0 = (1.0, 0.3)
    pde_val = float(RegularGridInterpolator((pair.grid.x1, pair.grid.x2), U)(x0))

    sde = st.sde_from_metric(m)
    ens = st.simulate_killed(sde, x0, t_max=t_star, dt=0.0025, n_paths=200000, seed=21)
    alive = ens.alive_at(t_star)
    vals = np.zeros(ens.n_paths)
    p = ens.positions[0].astype(float)
    vals[alive] = smooth_bump(p[alive, 0], 0.0, 2.0) * smooth_bump(p[alive, 1], -0.4, 0.5)
    mc_val = vals.mean()
    mc_err = vals.std(ddof=1) / math.sqrt(ens.n_paths)
    assert abs(mc_val - pde_val) <= 3.0 * mc_err + 0.01 * abs(pde_val)
