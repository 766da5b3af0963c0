"""The Riemann-Liouville stencil: where its points fall, and its exact values.

An RL derivative differentiates a (1 - alpha)-integral in its singular
endpoint with :func:`varfrac.domain._fd_derivative`: the central stencil
where it fits between the operator's ends, else the one-sided stencil.  A
spy on the kernel rules' singular ends shows every stencil point on the
regular side of the singular end, and the one-sided stencil pointing to
that end, so a stencil always fits.  The golden values, ``float.hex`` of
each result, pin the numbers to the bit.
"""

import numpy as np
import pytest

from varfrac import (OpKind, SmoothFn1, SmoothFn2, VariableOrder,
                     left_rl_derivative, partial_op, right_rl_derivative)
from varfrac import domain, operators
from varfrac.domain import SeparableFn2
from varfrac.quadrature import KernelRule, QuadConfig, Side

from conftest import UNIT, UNIT_RECT

QUAD = QuadConfig(panels=8, nodes_per_panel=6, grading=0.25)


def varying_alpha():
    """An order that varies in both t and tau, and stays in (0, 1) a little
    beyond the unit interval too."""
    return VariableOrder(lambda t, tau: 0.3 + 0.2 * t * tau + 0.1 * tau, UNIT)


def curved(tau):
    return np.exp(tau) * (1.0 + tau ** 2)


def analytic_fn2():
    return SmoothFn2(lambda t1, t2: np.sin(1.0 + t1 * t2) + t1 ** 2,
                     lambda t1, t2: t2 * np.cos(1.0 + t1 * t2) + 2.0 * t1,
                     lambda t1, t2: t1 * np.cos(1.0 + t1 * t2), check=False)


def fd_separable():
    """A separable field whose factors have no analytic derivative."""
    return SeparableFn2([(np.exp, lambda s: 1.0 + s), (lambda s: s ** 2, np.cos)], UNIT_RECT)


LEFT_POINTS = [0.5, 1e-12, 0.3, 1.0 - 1e-6, 1.0, 1.2]
RIGHT_POINTS = [0.5, 1.0 - 1e-12, 0.7, 1e-6, 0.0, -0.2]
ALONG_LEFT = np.array([1e-9, 0.4, 1.0 - 1e-6, 1.0])[:, None]
ALONG_RIGHT = np.array([0.0, 1e-6, 0.6, 1.0 - 1e-9])[:, None]
FROZEN = np.array([0.0, 0.35, 1.0])[None, :]


def _partial(kind, axis, f):
    along = ALONG_LEFT if kind is OpKind.D_RL_LEFT else ALONG_RIGHT
    p = (along, FROZEN) if axis == 1 else (FROZEN.T, along.T)
    return partial_op(kind, axis, f, varying_alpha(), p, UNIT_RECT, QUAD)


CASES = {
    "left/plain": lambda: left_rl_derivative(curved, varying_alpha(), 0.0, LEFT_POINTS, QUAD),
    "left/analytic": lambda: left_rl_derivative(
        SmoothFn1(np.sin, np.cos, check=False), varying_alpha(), 0.0, LEFT_POINTS, QUAD),
    "left/tiny_h": lambda: left_rl_derivative(curved, varying_alpha(), 0.0, LEFT_POINTS,
                                              QUAD, h=1e-9),
    "left/long_h": lambda: left_rl_derivative(curved, varying_alpha(), 0.0, LEFT_POINTS,
                                              QUAD, h=5.0),
    "right/plain": lambda: right_rl_derivative(curved, varying_alpha(), RIGHT_POINTS, 1.0, QUAD),
    "right/analytic": lambda: right_rl_derivative(
        SmoothFn1(np.sin, np.cos, check=False), varying_alpha(), RIGHT_POINTS, 1.0, QUAD),
    "right/tiny_h": lambda: right_rl_derivative(curved, varying_alpha(), RIGHT_POINTS, 1.0,
                                                QUAD, h=1e-9),
    "right/long_h": lambda: right_rl_derivative(curved, varying_alpha(), RIGHT_POINTS, 1.0,
                                                QUAD, h=5.0),
    **{f"partial/{kind.value}/{axis}/{name}": (lambda kind=kind, axis=axis, f=f:
                                               _partial(kind, axis, f()))
       for kind in (OpKind.D_RL_LEFT, OpKind.D_RL_RIGHT) for axis in (1, 2)
       for name, f in (("analytic", analytic_fn2), ("fd", fd_separable))},
}

# float.hex of every value of each case, recorded before the RL stencil was
# moved onto domain._fd_derivative
GOLDEN = {
    'left/analytic': [
        '0x1.986136fc87548p-1', '0x1.2d15cfb77596ep-28', '0x1.0f9717bf917f5p-1',
        '0x1.43fbf3521c342p+0', '0x1.43fbfa1bd561ap+0', '0x1.467e5e42bf1afp+0',
    ],
    'left/long_h': [
        '0x1.99ac450497e58p+1', '0x1.7f5d696edfbbdp+11', '0x1.1687e14a55067p+1',
        '0x1.63b60b0d01845p+3', '0x1.63b648748c47ap+3', '0x1.2e208731c53c0p+4',
    ],
    'left/plain': [
        '0x1.99ad93cbb394fp+1', '0x1.7f5d696edfbbdp+11', '0x1.16884bbe84527p+1',
        '0x1.63f1c903b7e4ap+3', '0x1.63f206831dbf9p+3', '0x1.2e7fc4f934f61p+4',
    ],
    'left/tiny_h': [
        '0x1.99ad938a4b9aap+1', '0x1.7f5d696edfbbdp+11', '0x1.16884c4414c6ap+1',
        '0x1.63f1c698b377fp+3', '0x1.63f204febeeffp+3', '0x1.2e7fca7f8cb2ap+4',
    ],
    'partial/D_rl_left/1/analytic': [
        '0x1.44e4d25620a42p+8', '0x1.44e4d257e0a3dp+8', '0x1.44e4d25b20a1bp+8',
        '0x1.56497b260e7ddp+0', '0x1.7346ab484b9bfp+0', '0x1.8f9100cf99dd6p+0',
        '0x1.7cb403ed4fe3ap+1', '0x1.95c7082786fefp+1', '0x1.6d8eb0d3de9efp+1',
        '0x1.7cb428364da8fp+1', '0x1.95c72cd70d8bdp+1', '0x1.6d8ec9e92d99fp+1',
    ],
    'partial/D_rl_left/1/fd': [
        '0x1.821a2c9eabe1ep+8', '0x1.049e77b7e7380p+9', '0x1.821a2c9eabe1ep+9',
        '0x1.34a58139b6541p+1', '0x1.8f4fb47b4670fp+1', '0x1.15c9cdf1d6580p+2',
        '0x1.9bec49bf51f4ap+2', '0x1.f3f01ad1a8feap+2', '0x1.381b8746a94cfp+3',
        '0x1.9bec754ca748fp+2', '0x1.f3f04d88c7c97p+2', '0x1.381ba477a0ba5p+3',
    ],
    'partial/D_rl_left/2/analytic': [
        '0x1.44e4d25620a42p+8', '0x1.01b9fbf3507c6p+0', '0x1.acb7d2e7ea7bfp-1',
        '0x1.acb7c6a211555p-1', '0x1.7430fcecbdb9dp+8', '0x1.443c24405223ap+0',
        '0x1.27b6b14359c4ap+0', '0x1.27b6ab08c8f25p+0', '0x1.637f7f7845bdcp+9',
        '0x1.36a4b5bbad768p+1', '0x1.b6cf8722493bap+0', '0x1.b6cf634d65f4ap+0',
    ],
    'partial/D_rl_left/2/fd': [
        '0x1.821a2c9eabe1ep+8', '0x1.e35a458fa7c3ep+0', '0x1.540ee3dd1bc75p+1',
        '0x1.540eee301d7aap+1', '0x1.2999f1b4248b3p+9', '0x1.672ad05177c4dp+1',
        '0x1.e338cfd27922ap+1', '0x1.e338dc20e92dfp+1', '0x1.66e8c3de13a75p+10',
        '0x1.8aa4ffe087f25p+2', '0x1.d0ddbffd8595ap+2', '0x1.d0ddc4743a22fp+2',
    ],
    'partial/D_rl_right/1/analytic': [
        '0x1.35be682d245cap-1', '0x1.1f350c7dda74ap-1', '0x1.0075cd920ac75p-1',
        '0x1.35be4b80f7135p-1', '0x1.1f34f50c73680p-1', '0x1.0075c5675d900p-1',
        '0x1.cafcb971b5732p-2', '0x1.ebcc9e68b99fap-2', '0x1.2cbd012f85ed8p-1',
        '0x1.974692ee341b9p+17', '0x1.b4f7d53f43e18p+17', '0x1.a646d9f72c083p+17',
    ],
    'partial/D_rl_right/1/fd': [
        '0x1.bf98ffa9db4aap-2', '0x1.3d4c7efd54115p-1', '0x1.f5867f079b1d5p-1',
        '0x1.bf98d95d0abd5p-2', '0x1.3d4c6cc8d962ap-1', '0x1.f58673e968cffp-1',
        '0x1.1f3d69762ed78p-1', '0x1.a11fcf0a5830ap-1', '0x1.536843e896b1fp+0',
        '0x1.9b2f07e162042p+18', '0x1.fdb066dc489c4p+18', '0x1.4a794f51df88dp+19',
    ],
    'partial/D_rl_right/2/analytic': [
        '0x1.5ab02f7b9082ap-1', '0x1.5ab0256e8356ap-1', '0x1.2cf87877f3caep-1',
        '0x1.7436caa8a124ap+16', '0x1.769f3a8137a85p-1', '0x1.769f34385f3cap-1',
        '0x1.693102c934c07p-1', '0x1.e5c902297b27ap+16', '0x1.60b41f486a8ffp+0',
        '0x1.60b41e89b9d4ap+0', '0x1.6cf191b5d6071p+0', '0x1.a646da09b9bdbp+17',
    ],
    'partial/D_rl_right/2/fd': [
        '0x1.1a7131d1c02b5p-1', '0x1.1a713c4bd1deap-1', '0x1.a6c5070052187p-1',
        '0x1.ba565b4f9ba61p+17', '0x1.c57def3c8efcap-1', '0x1.c57dfdc0a6f95p-1',
        '0x1.43b75b0713637p+0', '0x1.412c2a93f3434p+18', '0x1.2b76f66196baap+1',
        '0x1.2b76fcc918455p+1', '0x1.803a551ec3edfp+1', '0x1.4a794f5ca295dp+19',
    ],
    'right/analytic': [
        '0x1.6016893b9511ap-4', '0x1.6f26b8d4d654cp+22', '0x1.1a21140259630p-2',
        '-0x1.fb384af31779fp-3', '-0x1.fb38aa2d9b8aap-3', '-0x1.95b1193f212d5p-2',
    ],
    'right/long_h': [
        '0x1.b33a7fb9206bfp-5', '0x1.2882bd0791b12p+25', '0x1.8c7d493ad5396p-2',
        '0x1.920c259b8fb6ap-2', '0x1.920c64639158ap-2', '0x1.2954bd59de91bp-1',
    ],
    'right/plain': [
        '0x1.b4387b4205c55p-5', '0x1.2882bd0791b12p+25', '0x1.8cac65624f395p-2',
        '0x1.92d7c572eb5bfp-2', '0x1.92d8042102d6ap-2', '0x1.29964a5a15c2ap-1',
    ],
    'right/tiny_h': [
        '0x1.b438680985554p-5', '0x1.2882bd0791b12p+25', '0x1.8cac4a2b69d54p-2',
        '0x1.92d7b73e95aaap-2', '0x1.92d8297c98d54p-2', '0x1.29962fc53ffffp-1',
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_values(name):
    values = np.asarray(CASES[name]()).ravel()
    assert [float.hex(float(v)) for v in values] == GOLDEN[name]


@pytest.fixture
def stencil_spy(monkeypatch):
    """Every kernel rule's side and singular ends, and every stencil of the
    operators as (stencil, step, x)."""
    rules, stencils = [], []

    class SpyRule(KernelRule):
        def __init__(self, spec, lo, hi, cfg):
            super().__init__(spec, lo, hi, cfg)
            left = spec.side is Side.LEFT
            rules.append((left, np.asarray(hi if left else lo)))

    def spy_fd(fn, step, stencil=domain._CENTRAL):
        dfn = domain._fd_derivative(fn, step, stencil)
        return lambda x: stencils.append((stencil, step, x)) or dfn(x)

    monkeypatch.setattr(operators, "KernelRule", SpyRule)
    monkeypatch.setattr(operators, "_fd_derivative", spy_fd)
    return rules, stencils


SPY_POINTS = {
    # t at 1e-12 of the singular end, in the middle, near and at the
    # regular end, and beyond the order's domain
    OpKind.D_RL_LEFT: [1e-12, 0.5, 1.0 - 1e-9, 1.0, 1.3],
    OpKind.D_RL_RIGHT: [1.0 - 1e-12, 0.5, 1e-9, 0.0, -0.3],
}


@pytest.mark.parametrize("kind", [OpKind.D_RL_LEFT, OpKind.D_RL_RIGHT])
@pytest.mark.parametrize("h", [None, 1e-13, 5.0])
@pytest.mark.parametrize("call", ["one_point", "array", "partial"])
def test_stencil_points_stay_inside(stencil_spy, kind, h, call):
    # the step is at most 0.1 of the distance d to the singular end, so the
    # stencil points lie at least 0.6 d from it on the regular side; only
    # the regular end can stop the central stencil, and there the one-sided
    # stencil points back to the singular end: a left kernel takes negative
    # steps, a right one positive steps, and a stencil always fits
    rules, stencils = stencil_spy
    left = kind is OpKind.D_RL_LEFT
    a, b = 0.0, 1.0
    points = SPY_POINTS[kind]
    f = SmoothFn2(lambda t1, t2: 1.0 + t1 * t2, check=False)
    if call == "one_point":
        for t in points:
            operators.interval_op(kind, curved, varying_alpha(), a, b, t, QUAD, h)
    elif call == "array":
        operators.interval_op(kind, curved, varying_alpha(), a, b, points, QUAD, h)
    else:
        inside = [t for t in points if 0.0 <= t <= 1.0]
        partial_op(kind, 2, f, varying_alpha(), (np.array([[0.2], [0.9]]), np.array(inside)),
                   UNIT_RECT, QUAD, h)
    assert rules and len(rules) == len(stencils)
    seen_one_sided = False
    for (side, ends), (stencil, step, x) in zip(rules, stencils):
        assert side is left
        offsets, _ = stencil
        assert np.array_equal(ends, np.stack([x + k * step for k in offsets]))
        # the singular end is never reached, the regular one no further than t
        if left:
            assert (ends > a).all() and (ends <= np.maximum(b, x)).all()
        else:
            assert (ends < b).all() and (ends >= np.minimum(a, x)).all()
        if stencil is domain._ONE_SIDED:
            seen_one_sided = True
            assert ((step < 0.0) if left else (step > 0.0)).all()
        else:
            assert stencil is domain._CENTRAL
            assert (ends >= 0.0).all() and (ends <= 1.0).all()
    assert seen_one_sided


def test_fd_derivative_stencils_agree():
    # central and one-sided, either way round, differentiate exp to 4th order
    x = np.array([0.2, 0.9])
    for stencil, step in ((domain._CENTRAL, 1e-3), (domain._ONE_SIDED, 1e-3),
                          (domain._ONE_SIDED, -1e-3)):
        d = domain._fd_derivative(np.exp, np.full((2,), step), stencil)(x)
        np.testing.assert_allclose(d, np.exp(x), rtol=1e-10)
