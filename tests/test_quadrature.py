"""``quadrature.solve_monotone``: finished problems leave, and each root is the one it gets alone."""

import numpy as np

from steintail import quadrature

# x^3 = c on brackets of different widths: Newton from the bracket's split point
# takes a different number of steps for each, so the problems finish at different steps
CUBES = np.array([1e-6, 0.5, 2.0, 7.0, 1e3, 1e6, -3.0, -1e4])
LO = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -10.0, -1e3])
HI = np.array([1.0, 1.0, 4.0, 100.0, 1e3, 1e3, 0.0, 0.0])


def _cube(record=None):
    def f(x, i):
        if record is not None:
            record.append(i.copy())
        return x**3 - CUBES[i], 3.0 * x * x
    return f


def test_finished_problems_leave_and_never_come_back():
    seen = []
    roots = quadrature.solve_monotone(_cube(seen), LO, HI, True, xtol=1e-13)
    np.testing.assert_allclose(roots, np.cbrt(CUBES), rtol=1e-12)
    np.testing.assert_array_equal(seen[0], np.arange(CUBES.size))
    for before, after in zip(seen, seen[1:]):
        assert np.all(np.diff(after) > 0) and np.isin(after, before).all()  # in order, and a subset
    sizes = [i.size for i in seen]
    assert len(set(sizes)) >= 3, sizes  # problems finish at different steps
    assert seen[-1].size >= 1


def test_batch_roots_equal_single_solves_bit_for_bit():
    batch = quadrature.solve_monotone(_cube(), LO, HI, True, xtol=1e-13)
    for k in range(CUBES.size):
        alone = quadrature.solve_monotone(lambda x, i: (x**3 - CUBES[k], 3.0 * x * x), [LO[k]], [HI[k]], True,
                                          xtol=1e-13)
        assert alone[0] == batch[k], k


def test_per_problem_direction_and_start():
    # decreasing problems read by index, from given starts
    c = np.array([0.5, 8.0, 27.0])
    f = lambda x, i: (c[i] - x**3, -3.0 * x * x)
    roots = quadrature.solve_monotone(f, [0.0, 0.0, 0.0], [1.0, 5.0, 5.0], [False, False, False], [0.9, 1.0, 4.0],
                                      xtol=1e-14)
    np.testing.assert_allclose(roots, np.cbrt(c), rtol=1e-14)
