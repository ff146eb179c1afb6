"""Random well-typed combinator generator shared by the test modules.

Terms are grown bottom-up so they are well-typed by construction: every
choice is a primitive applicable at the current source type, a parallel
split along the type structure, or a sequential composition through an
intermediate type.  Dimensions never grow, so everything stays small and
exactly evaluable.
"""

import random

from sqrtpi.lang import (
    BOOL,
    ONE_T,
    ZERO_T,
    Combinator,
    Prim,
    Prod,
    ProdC,
    Sum,
    SumC,
    ValueType,
    seq,
)


def random_type(rng: random.Random, max_dim: int = 8, depth: int = 3) -> ValueType:
    if depth == 0:
        return rng.choice((ONE_T, ONE_T, BOOL, ZERO_T))
    r = rng.random()
    if r < 0.35:
        return rng.choice((ONE_T, BOOL, ZERO_T, ONE_T))
    left = random_type(rng, max_dim, depth - 1)
    right = random_type(rng, max_dim, depth - 1)
    if r < 0.7:
        t = Sum(left, right)
    else:
        t = Prod(left, right)
    from sqrtpi.lang import dimension

    if dimension(t) > max_dim:
        return rng.choice((ONE_T, BOOL))
    return t


def gen_from(rng: random.Random, src: ValueType, depth: int) -> tuple[Combinator, ValueType]:
    """A random combinator with the given source type; returns (term, target)."""
    choices: list = [("id", src)]
    if src == ONE_T:
        choices += [("w", ONE_T), ("wi", ONE_T)]
    if src == BOOL:
        choices += [("v", BOOL), ("vi", BOOL)] * 2
    if isinstance(src, Sum):
        choices.append(("swap+", Sum(src.right, src.left)))
        if depth > 0:
            choices += [("sumc", None)] * 3
        if src.left == ZERO_T:
            choices.append(("unite+l", src.right))
        if isinstance(src.left, Sum):
            choices.append(
                ("assocr+", Sum(src.left.left, Sum(src.left.right, src.right)))
            )
        if isinstance(src.right, Sum):
            choices.append(
                ("assocl+", Sum(Sum(src.left, src.right.left), src.right.right))
            )
        if (
            isinstance(src.left, Prod)
            and isinstance(src.right, Prod)
            and src.left.right == src.right.right
        ):
            choices.append(
                ("factor", Prod(Sum(src.left.left, src.right.left), src.left.right))
            )
    if isinstance(src, Prod):
        choices.append(("swap*", Prod(src.right, src.left)))
        if depth > 0:
            choices += [("prodc", None)] * 3
        if src.left == ONE_T:
            choices.append(("unite*l", src.right))
        if src.right == ZERO_T:
            choices.append(("absorbl", ZERO_T))
        if isinstance(src.left, Prod):
            choices.append(
                ("assocr*", Prod(src.left.left, Prod(src.left.right, src.right)))
            )
        if isinstance(src.right, Prod):
            choices.append(
                ("assocl*", Prod(Prod(src.left, src.right.left), src.right.right))
            )
        if isinstance(src.left, Sum):
            choices.append(
                (
                    "dist",
                    Sum(
                        Prod(src.left.left, src.right),
                        Prod(src.left.right, src.right),
                    ),
                )
            )
    if depth > 0:
        choices += [("seq", None)] * 4
        choices += [("uniti+l", Sum(ZERO_T, src)), ("uniti*l", Prod(ONE_T, src))]

    kind, tgt = rng.choice(choices)
    if kind == "seq":
        c1, mid = gen_from(rng, src, depth - 1)
        c2, out = gen_from(rng, mid, depth - 1)
        return seq(c1, c2), out
    if kind == "sumc":
        l, lt = gen_from(rng, src.left, depth - 1)
        r, rt = gen_from(rng, src.right, depth - 1)
        return SumC(l, r), Sum(lt, rt)
    if kind == "prodc":
        l, lt = gen_from(rng, src.left, depth - 1)
        r, rt = gen_from(rng, src.right, depth - 1)
        return ProdC(l, r), Prod(lt, rt)
    return Prim(kind), tgt


def random_terms(seed: int, count: int, max_depth: int = 6):
    """Yield (term, src, tgt) triples, deterministically from the seed."""
    rng = random.Random(seed)
    for _ in range(count):
        src = random_type(rng)
        term, tgt = gen_from(rng, src, rng.randint(1, max_depth))
        yield term, src, tgt
