"""Readers for the graph6 and edge-list formats that mdg exports, used by
the tests to read exported graphs back.  They raise ValueError on
malformed input."""

import math

from mdg.graphs import Graph


def from_graph6(s: str | bytes) -> Graph:
    data = [c - 63 for c in (s.encode("ascii") if isinstance(s, str) else bytes(s)).strip()]
    if not data:
        raise ValueError("empty graph6 string")
    if any(not 0 <= c <= 63 for c in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 size header")
        if data[1] == 63:
            raise ValueError("graph too large for the supported graph6 sizes")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise ValueError("graph6 body has the wrong length")
    edges = []
    for b, c in enumerate(data):
        while c:
            r = c.bit_length() - 1
            c ^= 1 << r
            k = 6 * b + 5 - r
            if k < nbits:  # padding bits are ignored
                j = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, edges)


def from_edgelist(text: str, n: int | None = None) -> Graph:
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        u, v = map(int, line.split())
        edges.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1 if n is None else n, edges)
