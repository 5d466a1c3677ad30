"""SU(2)_k Verlinde fusion rings as ``ring:`` JSON, with closed-form oracles.

The simples are the spins a = 0..k (twice the spin), every simple is
self-dual, and ``N[a][b][c] = 1`` exactly when ``|a-b| <= c <= min(a+b,
2k-a-b)`` and ``c = a+b (mod 2)``.

Run ``python3 perfbench/su2.py`` to self-test the generator on small k.
"""

from __future__ import annotations

import json
import math
import os


def su2_ring(k: int) -> dict:
    """The ``ring:`` JSON dict of SU(2)_k (rank k+1)."""
    if k < 1:
        raise ValueError(f"SU(2)_k needs k >= 1, got {k}")
    r = k + 1
    N = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(r):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                N[a][b][c] = 1
    return {"labels": [f"j{a}" for a in range(r)], "dual": list(range(r)), "N": N}


def su2_oracle(k: int) -> dict:
    """Closed-form predictions that a correct program must reproduce.

    The global dimension is ``(k+2) / (2 sin^2(pi/(k+2)))``.  For k >= 3 the
    fusion subcategories are the trivial one, the integer spins, the pointed
    {0, k} and the whole category: four in all.  (For k = 2 the integer spins
    are {0, k}, and k = 1 has only the trivial one and the whole.)
    """
    dim = (k + 2) / (2 * math.sin(math.pi / (k + 2)) ** 2)
    oracle = {"rank": k + 1, "global_dim": dim}
    if k >= 3:
        oracle["subcategories"] = 4
    return oracle


def su2_path(k: int, directory: str) -> str:
    return os.path.join(directory, f"su2_{k}.json")


def write_su2(k: int, directory: str) -> None:
    """Write SU(2)_k to ``su2_path(k, directory)``."""
    os.makedirs(directory, exist_ok=True)
    with open(su2_path(k, directory), "w", encoding="utf-8") as fh:
        json.dump(su2_ring(k), fh)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"su2 self-test failed: {what}")


def _subcategory_count(N: list) -> int:
    """Fusion subcategories by brute force over subsets containing the unit."""
    r = len(N)
    count = 0
    for mask in range(1, 1 << r, 2):
        members = [a for a in range(r) if mask >> a & 1]
        if all(mask >> c & 1 for a in members for b in members for c in range(r) if N[a][b][c]):
            count += 1
    return count


def _self_test() -> None:
    _check(math.isclose(su2_oracle(1)["global_dim"], 2.0, rel_tol=1e-12), "k=1 global dim 2")
    _check(math.isclose(su2_oracle(2)["global_dim"], 4.0, rel_tol=1e-12), "k=2 (Ising) global dim 4")
    ising = su2_ring(2)["N"]
    _check(ising[1][1] == [1, 0, 1] and ising[2][2] == [1, 0, 0] and ising[1][2] == [0, 1, 0],
           "Ising fusion rules")
    want = {1: 2, 2: 3}
    for k in range(1, 11):
        N = su2_ring(k)["N"]
        _check(_subcategory_count(N) == want.get(k, su2_oracle(k).get("subcategories")),
               f"k={k}: subcategory count")
        # Frobenius-Perron dimensions d_a = sin((a+1)q)/sin(q) fuse as N says.
        q = math.pi / (k + 2)
        d = [math.sin((a + 1) * q) / math.sin(q) for a in range(k + 1)]
        for a in range(k + 1):
            for b in range(k + 1):
                rhs = sum(N[a][b][c] * d[c] for c in range(k + 1))
                _check(math.isclose(d[a] * d[b], rhs, rel_tol=1e-9), f"k={k}: d_{a} d_{b}")
        _check(math.isclose(sum(x * x for x in d), su2_oracle(k)["global_dim"], rel_tol=1e-9),
               f"k={k}: global dim is the sum of d_a^2")
    print("su2 self-test ok")


if __name__ == "__main__":
    _self_test()
