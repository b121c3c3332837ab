"""One draw core per backing, shared by the point and the normal samplers."""


class AreaSampler:
    """Area-uniform ``sample`` and ``sample_points`` from one draw core.

    A backing implements ``_draw(rng, n, ball)``, which makes every random
    draw of n samples and returns their per-row parameters, and
    ``_points(*params)`` and ``_normals(*params)``, which form those rows.
    Without a ball the rows are area-uniform on the whole surface.  With a
    ball (center, radius) they are area-uniform on the backing's cover of
    it: a region of the surface that holds every surface point of the ball,
    of area ``cover_area(ball)`` (no rows when that area is 0).  Both
    samplers thus make the same draws, leave the generator in the same state
    and form points by the same formula, so ``sample_points`` returns
    ``sample(...)[0]`` bit for bit without forming a normal.
    """

    def sample(self, rng, n, ball=None):
        """n area-uniform draws as (points (n, 3), normals (n, 3))."""
        params = self._draw(rng, n, ball)
        return self._points(*params), self._normals(*params)

    def sample_points(self, rng, n, ball=None):
        """The points of ``sample(rng, n, ball)``, without the normals."""
        return self._points(*self._draw(rng, n, ball))
