import pathlib
import random
import tempfile
from itertools import combinations, product

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from reference import curve_degree, exceptional_setup, star_subdivide
from slopestab.models import MixedTable, parse_model
from slopestab.slope import alpha_polys
from slopestab.toric import Fan, ToricModel, export_table, polytope_of

# the same examples on every run (100, the default count), and no example
# database written to disk
settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100)
settings.load_profile("deterministic")
# Hypothesis also caches the constants it reads from local source files in its
# storage directory, whatever the database setting: keep that in a temporary
# directory, removed at exit, instead of .hypothesis/ in the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"

_P3_BLOWUP = Fan(
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
    ((0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 2, 4), (0, 2, 4), (0, 1, 4)),
)

# toric models beyond the fixture files: higher dimension, and Bl_pt P3
# blown up again at the torus-fixed point sigma = [0, 1, 4] on E
EXTRA_TORIC = {
    "p4_o2_codim2": ToricModel(
        "P4 O(2) codim 2",
        Fan(
            tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
            + ((-1, -1, -1, -1),),
            tuple(combinations(range(5), 4)),
        ),
        (0, 0, 0, 0, 2),
        (0, 1),
    ),
    "p1_cubed_point": ToricModel(
        "(P1)^3 O(1) point",
        Fan(
            tuple(tuple(s * int(i == j) for j in range(3)) for s in (1, -1) for i in range(3)),
            tuple(
                tuple(i if plus else i + 3 for i, plus in enumerate(choice))
                for choice in product((True, False), repeat=3)
            ),
        ),
        (0, 0, 0, 1, 1, 1),
        (0, 1, 2),
    ),
    "blp3_014": ToricModel(
        "Bl P3 2H-E sigma [0, 1, 4]", _P3_BLOWUP, (0, 0, 0, 2, -1), (0, 1, 4)
    ),
    # u_sigma = (0, -1): filtration levels fall along the last coordinate
    "p2_o2_point_02": ToricModel(
        "P2 O(2) point [0, 2]",
        Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2))),
        (0, 0, 2),
        (0, 2),
    ),
}


# -- cscK families: products of projective spaces with any polarization, and
# the Kahler-Einstein hexagon dP6 and its products with -K --

def _projective_fan(a):
    """P^a: rays e_1..e_a and -(e_1 + ... + e_a), every a of them a cone."""
    rays = tuple(tuple(int(i == j) for j in range(a)) for i in range(a)) + ((-1,) * a,)
    return rays, tuple(combinations(range(a + 1), a))


# the toric del Pezzo surface of degree 6: six rays around the hexagon
_DP6_FAN = (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
            tuple((i, (i + 1) % 6) for i in range(6)))


def _product_model(label, shape, degrees=None, sigma=None, with_h=False):
    """The toric model on a product of factors, each an int a for P^a or
    "dP6" for the hexagon: the rays of each factor in its own block of
    coordinates, one maximal cone per choice of a cone in each factor.  L
    is sum_i d_i times the pullback of the i-th factor's last ray divisor,
    which is O(d_i) on a P^a factor; degrees None gives -K, every
    coefficient 1.  H is -K, ample on these factors.  sigma defaults to the
    first two rays of the first cone."""
    factors = [_DP6_FAN if f == "dP6" else _projective_fan(f) for f in shape]
    dim = sum(len(rays[0]) for rays, _ in factors)
    rays, blocks, at = [], [], 0
    for fan_rays, _ in factors:
        blocks.append(len(rays))
        width = len(fan_rays[0])
        rays += [(0,) * at + ray + (0,) * (dim - at - width) for ray in fan_rays]
        at += width
    cones = tuple(tuple(b + i for b, cone in zip(blocks, choice) for i in cone)
                  for choice in product(*(cones for _, cones in factors)))
    L = [1] * len(rays)
    if degrees is not None:
        L = [0] * len(rays)
        for b, (fan_rays, _), d in zip(blocks, factors, degrees):
            L[b + len(fan_rays) - 1] = d
    return ToricModel(label, Fan(tuple(rays), cones), tuple(L),
                      cones[0][:2] if sigma is None else sigma,
                      (1,) * len(rays) if with_h else None)


@pytest.fixture(scope="session")
def product_model():
    return _product_model


def _times_p1(model, d):
    """X x P^1 with L x O(d) and the center Z x P^1: X's rays with a last
    coordinate 0, then (0, ..., 0, 1) and (0, ..., 0, -1), each maximal cone
    of X with one of the two, L with d on the last ray and sigma as it was.
    No H."""
    fan, k = model.fan, len(model.fan.rays)
    rays = tuple((*ray, 0) for ray in fan.rays) + ((0,) * fan.dim + (1,),
                                                    (0,) * fan.dim + (-1,))
    cones = tuple((*cone, i) for cone in fan.max_cones for i in (k, k + 1))
    return ToricModel(f"{model.label} x P1 O({d})", Fan(rays, cones), (*model.L, 0, d),
                      model.sigma)


@pytest.fixture(scope="session")
def times_p1():
    return _times_p1


@pytest.fixture(scope="session")
def csck_models():
    """A seeded sample of models over the two cscK families: 13 shapes of
    P^{a_1} x ... x P^{a_k}, each with 3 random degree vectors
    O(d_1, ..., d_k), d_i in 1..4, and dP6, dP6 x P^1, dP6 x P^2,
    dP6 x P^1 x P^1 and dP6 x dP6 with -K; on each, 8 random faces sigma
    of random maximal cones, repeats allowed.  Every table exported from them must be slope semistable
    along every sigma: a product of Fubini-Study metrics has constant scalar
    curvature, and dP6, whose anticanonical polytope has barycenter 0, is
    Kahler-Einstein (Wang-Zhu, Adv. Math. 2004), as are its products; cscK
    implies slope semistability (Ross-Thomas, J. Differential Geom. 2006)."""
    rng = random.Random(15)
    shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 3), (4,), (1, 1, 2),
              (2, 3), (1, 1, 1, 1), (5,)]
    bases = [(shape, degrees) for shape in shapes
             for degrees in (tuple(rng.randint(1, 4) for _ in shape) for _ in range(3))]
    bases += [(("dP6", *others), None) for others in ((), (1,), (2,), (1, 1), ("dP6",))]
    sample = []
    for shape, degrees in bases:
        label = " x ".join(f if f == "dP6" else f"P{f}" for f in shape)
        label += " -K" if degrees is None else f" O{degrees}"
        base = _product_model(label, shape, degrees)
        for _ in range(8):
            cone = rng.choice(base.fan.max_cones)
            sigma = tuple(rng.sample(cone, rng.randint(1, len(cone))))
            sample.append(ToricModel(f"{label} sigma {sorted(sigma)}", base.fan, base.L,
                                     sigma))
    return sample


@pytest.fixture(scope="session")
def blown_up_projective_space():
    """P^n with one star subdivision per delta_j, at a random smooth face,
    and L = d pi*O(1) - sum_j delta_j E_j: a subdivision is kept only if
    every curve degree of L stays positive, so L is ample.  Z is a random
    codimension-2 face; the same seed gives the same model."""

    def build(n, d, deltas, seed):
        rng = random.Random(seed)
        fan = Fan(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,),
            tuple(combinations(range(n + 1), n)),
        )
        coeffs = (0,) * n + (d,)
        for delta in deltas:
            for _ in range(100):
                sigma = rng.sample(rng.choice(fan.max_cones), rng.randint(2, n))
                fan1, _ = star_subdivide(fan, sigma)
                L = coeffs + (sum(coeffs[i] for i in sigma) - delta,)
                if all(curve_degree(wall, L) > 0 for wall in fan1.walls):
                    fan, coeffs = fan1, L
                    break
            else:
                raise RuntimeError(f"no ample subdivision of P{n} for delta {delta}")
        sigma = rng.choice(fan.max_cones)[:2]
        return ToricModel(f"Bl P{n} seed {seed}", Fan(fan.rays, fan.max_cones), coeffs, sigma)

    return build


@pytest.fixture(scope="session")
def load_model():
    def load(name):
        if name in EXTRA_TORIC:
            return EXTRA_TORIC[name]
        return parse_model((MODELS_DIR / f"{name}.json").read_bytes())

    return load


@pytest.fixture(scope="session")
def models_dir():
    return MODELS_DIR


@pytest.fixture(scope="session")
def agrees_with_polytopes():
    """The exported table of L + sH against the polytope reference path:
    alpha0(t) must be the volume of pi*(L + sH) - tE and alpha1(t) half its
    boundary lattice volume at t_i = i*eps/(n+2), i = 0..n+2, eps included.
    Both alphas have degree <= n, so agreement at n+3 nodes is exact."""

    def agrees(model, s=0) -> bool:
        table = export_table(model)
        if isinstance(table, MixedTable):
            table = table.specialize(s)
        pair = alpha_polys(table)
        fan1, e_idx, pullback = exceptional_setup(model)
        divisor = pullback(model.L)
        if s:
            divisor = tuple(a + s * h for a, h in zip(divisor, pullback(model.H)))
        n = model.fan.dim
        for i in range(n + 3):
            t = i * table.epsilon / (n + 2)
            poly = polytope_of(fan1, tuple(a - t * (j == e_idx) for j, a in enumerate(divisor)))
            if poly.volume() != pair.alpha0(t):
                return False
            if poly.boundary_lattice_volume() / 2 != pair.alpha1(t):
                return False
        return True

    return agrees
