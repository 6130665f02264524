import numpy as np
import pytest

from obslat.metric import cutoff_obstacles


@pytest.fixture
def paper_radius_obstacles():
    """(space, core, region) -> (phi, psi) at the paper's literal radius r^2 = D0^2/2.

    That is twice the r2 of ``cutoff_obstacles``, so 2 r^2 in its formulas
    becomes 4 * r2; the pair is left uncorrected, crossings included.
    """
    def build(space, core, region):
        _, _, r2 = cutoff_obstacles(space, core, region)
        out = sorted(set(range(space.n)) - set(region))
        phi = 1.0 - np.minimum(1.0, space.distance_to(core) ** 2 / (4.0 * r2))
        psi = np.minimum(1.0, space.distance_to(out) ** 2 / (4.0 * r2))
        return phi, psi

    return build
