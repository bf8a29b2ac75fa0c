"""The full interval sweep that `rectangles._interval_runs` replaced, kept as
its test oracle: it yields every run of every interval, not only the runs
that contain a segment the abscissa touched."""

from bisect import insort


def _interval_runs(hsegs, k: int):
    """Yield (run, witness_x) for every length-k consecutive run of the y-sorted
    active set on each open interval between consecutive endpoint abscissae."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(hsegs)
    if n == 0:
        return
    starts: dict[float, list[int]] = {}
    ends: dict[float, list[int]] = {}
    for i, s in enumerate(hsegs):
        starts.setdefault(s.lo, []).append(i)
        ends.setdefault(s.hi, []).append(i)
    abscissae = sorted(set(starts) | set(ends))
    active: list[tuple[float, int]] = []  # (y, index), kept sorted by y
    for xi in range(len(abscissae) - 1):
        x = abscissae[xi]
        for i in ends.get(x, ()):
            active.remove((hsegs[i].fixed, i))
        for i in starts.get(x, ()):
            insort(active, (hsegs[i].fixed, i))
        witness = (x + abscissae[xi + 1]) / 2.0
        for lo in range(len(active) - k + 1):
            yield tuple(idx for _, idx in active[lo : lo + k]), witness
