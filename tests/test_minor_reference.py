"""``find_minor`` against the search it replaced, attempt for attempt.

The reference below is ``find_minor`` and ``_wider`` as they stood before
the host plan kept its components, least degree and single-vertex name
sets, and before ``place`` hoisted its per-level constants and returned the
completed model at the last level.  Nothing but the attempt count it
returns is added.  The two searches must explore alike: for the
reference's attempt count a, ``find_minor`` with budget a returns the
reference's model (or None), and with budget a - 1 it raises whenever
a > 0.  A search that counts an attempt at a different point, or reaches
another first model, fails here.
"""

import json
import pathlib
import random

import pytest

from hgdilute.decomposition import DEFAULT_TW_VERTEX_LIMIT
from hgdilute.errors import BudgetExceededError
from hgdilute.generators import grid, jigsaw, mesh
from hgdilute.hypergraph import Hypergraph, _mask_components, dual
from hgdilute.minors import (
    DEFAULT_MINOR_BUDGET,
    MinorMap,
    _host,
    _pattern,
    _piece_rank,
    find_minor,
)

CORPUS = pathlib.Path(__file__).parents[1] / "perfbench" / "degree2_corpus.json"


def reference_wider(pattern, host):
    n, bound = len(pattern.adj), host.min_degree_width
    # a treewidth is at most the vertex count less one
    if bound >= n - 1 or n > DEFAULT_TW_VERTEX_LIMIT:
        return False
    return pattern.min_degree_width > bound and pattern.treewidth > bound


def reference_find_minor(g, host, budget=DEFAULT_MINOR_BUDGET):
    """(model or None, placement attempts made)."""
    pattern = _pattern(g)
    if len(pattern.names) > len(host.vertices):
        return None, 0
    plan = _host(host)
    if (
        pattern.edges > plan.edges
        or pattern.rank > plan.rank
        or (
            len(pattern.names) == len(plan.names)
            and any(p > h for p, h in zip(pattern.degrees, plan.degrees))
        )
        or reference_wider(pattern, plan)
    ):
        return None, 0

    n, names, nbr = len(pattern.names), plan.names, plan.adj
    earlier, later, fits = pattern.earlier, pattern.later, pattern.fits
    # every other pattern vertex takes at least one host vertex
    subsets = plan.subsets(len(names) - n + 1)
    everything = (1 << len(names)) - 1
    attempts = 0

    def place(i: int, used: int, images: list[int], rims: list[int]):
        nonlocal attempts
        if i == n:
            return list(images)
        free = everything & ~used
        limit = free.bit_count() - (n - i - 1)
        regions = _mask_components(nbr, free)
        for k, (size, touch, rank) in enumerate(fits[i]):
            spot = room = 0
            for r in regions:
                if r.bit_count() >= size and (not rank or _piece_rank(nbr, r) >= rank):
                    for j in touch:
                        if not r & rims[j]:
                            break
                    else:
                        spot |= r
                        room = max(room, r.bit_count() - size + 1)
                        if k:
                            break  # one region is enough for the others
            if not spot:
                return None
            if not k:
                home, limit = spot, min(limit, room)
        linked = [images[j] for j in earlier[i]]
        for s, around, size in subsets:
            if size > limit:
                break  # sizes only grow from here
            if s & ~home:
                continue
            attempts += 1
            if attempts > budget:
                raise BudgetExceededError(
                    f"minor search exceeded {budget} placement attempts"
                )
            if (around & ~used).bit_count() < later[i]:
                continue
            for image in linked:
                if not around & image:
                    break
            else:
                images.append(s)
                rims.append(around)
                res = place(i + 1, used | s, images, rims)
                if res is not None:
                    return res
                images.pop()
                rims.pop()
        return None

    model = place(0, 0, [], [])
    if model is None:
        return None, attempts
    sets = [{v for k, v in enumerate(names) if m >> k & 1} for m in model]
    return MinorMap.of(dict(zip(pattern.names, sets))), attempts


def explores_alike(g, host) -> int:
    """Assert that ``find_minor`` explores as the reference does on (g, host)
    and return the reference's attempt count."""
    model, attempts = reference_find_minor(g, host)
    found = find_minor(g, host, budget=attempts)
    assert found == model
    # equal frozensets may still print their members in different orders
    assert repr(found) == repr(model)
    if attempts:
        with pytest.raises(BudgetExceededError, match=f" {attempts - 1} placement"):
            find_minor(g, host, budget=attempts - 1)
    return attempts


def relabelled(h, seed):
    """h with its sorted vertices renamed x0, x1, ... in an order shuffled
    by ``random.Random(seed)``."""
    verts = sorted(h.vertices)
    names = [f"x{i}" for i in range(len(verts))]
    random.Random(seed).shuffle(names)
    m = dict(zip(verts, names))
    return Hypergraph(
        frozenset(names), frozenset(frozenset(m[v] for v in e) for e in h.edges)
    )


def test_degree2_corpus():
    data = json.loads(CORPUS.read_text())
    make = lambda d: Hypergraph.make(d["edges"], d["vertices"])  # noqa: E731
    hosts = [dual(make(d)) for d in data["hosts"]]
    patterns = [make(d) for d in data["patterns"]]
    assert (len(hosts), len(patterns)) == (206, 31)
    total = sum(explores_alike(g, h) for h in hosts for g in patterns)
    assert total > 0


@pytest.mark.parametrize(
    "host",
    [grid(3, 4), dual(mesh(4, 4)), dual(jigsaw(3, 4)), dual(jigsaw(2, 6))],
    ids=["grid34", "mesh44-dual", "jigsaw34-dual", "jigsaw26-dual"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_grid_hosts(host, seed):
    h = relabelled(host, seed)
    assert explores_alike(grid(2, 2), h) > 0
    explores_alike(grid(3, 3), h)
