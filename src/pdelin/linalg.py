"""Tiny exact matrix helpers over expressions (n stays small here)."""

from __future__ import annotations

from .expr import add, mul, neg, rat, sub


def det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return sub(mul(mat[0][0], mat[1][1]), mul(mat[0][1], mat[1][0]))
    out = []
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mul(mat[0][j], det(minor))
        out.append(term if j % 2 == 0 else neg(term))
    return add(*out)


def adjugate(mat):
    n = len(mat)
    if n == 1:
        return [[rat(1)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = det(minor) if minor else rat(1)
            adj[j][i] = cof if (i + j) % 2 == 0 else neg(cof)
    return adj

