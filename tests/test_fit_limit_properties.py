"""Property test of the batched limit fit on drawn power-law series."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ahmass import default_schedule, fit_limit  # noqa: E402

# the radii fitted by default 8- and 16-radius sweeps: the smaller half
FIT_SCHEDULES = (np.array(default_schedule(count=8)[-4:]),
                 np.array(default_schedule(count=16)[-8:]))

# (w, |C|, C < 0, p) for one column v_inf + C eps^p
COLUMN = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 10.0), st.booleans(),
                   st.floats(0.6, 5.9))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(eps=st.sampled_from(FIT_SCHEDULES), cols=st.lists(COLUMN, min_size=1, max_size=13))
def test_batched_fit_recovers_drawn_power_laws(eps, cols):
    series = []
    for w, c_abs, negative, p in cols:
        # v_inf = w times the smallest correction term, so the correction
        # clears rounding by about 1e13 and the data fix p; a fit of data at
        # the rounding floor can be flagged trusted with a wrong p
        correction = (-c_abs if negative else c_abs) * eps ** p
        series.append(w * c_abs * eps[-1] ** p + correction)
    batch = fit_limit(np.stack(series, axis=1), eps)
    assert len(batch) == len(cols)
    for (_, _, _, p), v, fit in zip(cols, series, batch):
        assert fit == fit_limit(v, eps)
        if fit.order_trusted:
            assert abs(fit.order - p) <= 1e-6
