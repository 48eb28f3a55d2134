"""The storage recursion in its row-major form, kept as a test oracle.

``_storage_recursion`` here is ``bspower.stochastic._storage_recursion``
as it was written with one row per program: knots and slopes are
(programs, width) arrays padded with inf on the right, and each period
gathers them with 2-D fancy indexing and masks the padding with
``np.where``. The shipped function holds one column per program instead;
the arithmetic of each entry is the same, so the two must return
byte-equal schedules.
"""

import numpy as np


def _storage_recursion(price, net_load, keep, loss, capacity, initial, terminal,
                       probabilities, groups):
    """Optimal purchase, battery and excess schedules, each (P, T), of P
    one-battery programs given as (P, T) price and net-load (consumption
    minus renewable) rows and (P,) retention, loss cost, capacity, endpoint
    levels and probabilities. groups lists index arrays of two or more
    programs that share their first purchase.

    Let c_t = price_t / 1000 and d_t the net load. W_t, the optimal cost
    from period t on as a function of the level s_t, is convex and
    piecewise linear; it is held as ascending knots and the slope right of
    each knot, inf at the last knot, both padded with inf on the right. No
    values are needed. W_{T-1} is the one knot terminal. Going back, U_t is
    the first knot of W_{t+1} with slope >= 0, its smallest minimiser, and
    L_t the first with slope >= -c_t, below which buying a Wh more pays.
    From level s the period leaves z = keep s - d_t before any purchase or
    dump, and the best next level is clip(z, L_t, U_t); the cost from there
    on, F_t(z), has slope -c_t below L_t, W_{t+1}'s slope between and 0
    above U_t. So W_t(s) = loss s + F_t(keep s - d_t) on [0, capacity] has
    the knots 0, capacity (when > 0) and the images (k + d_t) / keep of
    W_{t+1}'s knots k from L_t to U_t that lie strictly between, each with
    right slope loss + keep F_t'.

    The forward pass buys up to Y = max(z, L_t) and dumps down to U_t.
    Among tied optima it takes the lowest next level, because L_t and U_t
    are the first knots that qualify. A group's members share c_0, d_0 and
    s_0, so z too, and their common Y minimises c_0 (Y - z) sum p_w + sum
    p_w W_1w(min(Y, U_0w)) over Y >= max(0, z). That is convex and
    piecewise linear, so Y is the smallest of that bound and the members'
    W_1 knots at which the slope sum_w p_w (c_0 + min(g_w(Y), 0)) is >= 0,
    g_w(Y) the slope of W_1w right of Y, -inf below its first knot (a
    one-dimensional master problem, solved exactly: the L-shaped method of
    Van Slyke & Wets 1969). Written per member, a term is exactly 0 where
    that member is tied, so members that agree alone keep their level. Each
    member then buys Y - z and dumps what lies above its own U_0.
    """
    P, T = price.shape
    c = price / 1000.0
    rows, room = np.arange(P), capacity > 0.0
    below, above = np.empty((T - 1, P)), np.empty((T - 1, P))  # L_t and U_t
    knots, slopes = terminal[:, None].copy(), np.full((P, 1), np.inf)
    for t in range(T - 2, -1, -1):
        up = (slopes >= 0.0).argmax(axis=1)
        buy = (slopes >= -c[:, t, None]).argmax(axis=1)
        below[t], above[t] = knots[rows, buy], knots[rows, up]
        if t == 0:
            break
        j = np.arange(knots.shape[1])
        image = (knots + net_load[:, t, None]) / keep[:, None]
        inside = ((j >= buy[:, None]) & (j <= up[:, None])
                  & (image > 0.0) & (image < capacity[:, None]))
        count = inside.sum(axis=1)
        f = np.where(j < up[:, None], slopes, 0.0)  # F_t' right of each knot from L_t on
        z0 = -net_load[:, t]  # what level 0 leaves
        held = np.maximum((knots <= z0[:, None]).sum(axis=1) - 1, 0)
        span = np.arange(int(count.max()) + 1)  # the new knots after 0
        src = np.minimum(inside.argmax(axis=1)[:, None] + span, knots.shape[1] - 1)
        take = span < count[:, None]
        knots = np.full((P, span.size + 1), np.inf)
        slopes = knots.copy()
        knots[:, 0] = 0.0
        slopes[:, 0] = np.where(room, loss + keep * np.where(
            z0 < below[t], -c[:, t], f[rows, held]), np.inf)
        knots[:, 1:] = np.where(take, image[rows[:, None], src], np.inf)
        slopes[:, 1:] = np.where(take, loss[:, None] + keep[:, None] * f[rows[:, None], src],
                                 np.inf)
        knots[room, 1 + count[room]] = capacity[room]

    for members in groups:
        lead = members[0]
        bound = max(0.0, keep[lead] * initial[lead] - net_load[lead, 0])
        own = knots[members]
        candidates = np.concatenate(([bound], own[(own > bound) & (own < np.inf)]))
        # each member's slope right of a level, -inf below its first knot
        right = np.concatenate((np.full((len(members), 1), -np.inf), slopes[members]), axis=1)
        slope = 0.0
        for k, w in enumerate(members):
            g = right[k, np.searchsorted(own[k], candidates, side="right")]
            slope = slope + probabilities[w] * (c[lead, 0] + np.minimum(g, 0.0))
        below[0, members] = np.min(candidates, where=slope >= 0.0, initial=np.inf)

    purchase, battery, excess = np.zeros((P, T)), np.empty((P, T)), np.zeros((P, T))
    battery[:, 0] = initial
    for t in range(T - 1):
        z = keep * battery[:, t] - net_load[:, t]
        level = np.maximum(z, below[t])
        battery[:, t + 1] = np.minimum(level, above[t])
        purchase[:, t] = level - z
        excess[:, t] = level - battery[:, t + 1]
    return purchase, battery, excess
