"""Shared fixtures: the recurring 7-partitions, the order-8 runs and
small helpers."""

import contextlib
import functools
import io
import itertools
from collections import namedtuple

import pytest

from dtvertex import (
    MultiPartition,
    euler_class,
    specialize,
    sqrt_form_product,
    taut_factor,
    vertex,
    weight_table,
)
from dtvertex.cli import main


def axis_box_heights(arity):
    """Corner column of height 2 plus one box on every axis."""
    h = {(1,) * arity: 2}
    for i in range(arity):
        h[tuple(2 if j == i else 1 for j in range(arity))] = 1
    return h


@pytest.fixture
def seven_part_size9():
    """7-partition of size 9: corner height 2, one box per axis."""
    return MultiPartition(7, axis_box_heights(7))


@pytest.fixture
def seven_part_size10():
    """7-partition of size 10: corner height 3, one box per axis."""
    h = axis_box_heights(7)
    h[(1,) * 7] = 3
    return MultiPartition(7, h)


@pytest.fixture
def seven_part_size14():
    """7-partition of size 14: corner height 3, a 2-cube on the first
    three axes, one box on each remaining axis."""
    h = {(1,) * 7: 3}
    for sub in itertools.product([1, 2], repeat=3):
        if sub != (1, 1, 1):
            h[sub + (1,) * 4] = 1
    for i in range(3, 7):
        h[tuple(2 if j == i else 1 for j in range(7))] = 1
    return MultiPartition(7, h)


def single_box(arity):
    return MultiPartition(arity, {(1,) * arity: 1})


def corner_column(arity, height):
    return MultiPartition(arity, {(1,) * arity: height})


def cube_on_three_axes(arity):
    """B: the 2x2x2 cube of boxes on the first three base axes (size 8)."""
    pad = (1,) * (arity - 3)
    return MultiPartition(arity, {idx + pad: 1 for idx in itertools.product((1, 2), repeat=3)})


def raised_cube_without_corner(arity):
    """A: the 2x2x2 cube on the first three base axes without its far
    corner, the corner column raised to height 2 (size 8)."""
    pad = (1,) * (arity - 3)
    h = {idx + pad: 1 for idx in itertools.product((1, 2), repeat=3) if idx != (2, 2, 2)}
    h[(1,) * arity] = 2
    return MultiPartition(arity, h)


# run in this order on one cache: omega reads the weights fourk wrote
ORDER_8_COMMANDS = ("check fourk -d 8 -n 8", "check omega -d 8 -n 8")


@pytest.fixture(scope="session")
def order_8_reports(tmp_path_factory):
    """{command: (exit code, stdout)} for ORDER_8_COMMANDS, run once per
    pytest run and shared by the order-8 facts and their report pins."""
    cache = str(tmp_path_factory.mktemp("order_8") / "weights.jsonl")
    runs = {}
    for command in ORDER_8_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(command.split() + ["--cache", cache])
        runs[command] = code, out.getvalue()
    return runs


@functools.cache
def cached_weight_table(d, order):
    """weight_table(d, order), built once per pytest run and shared."""
    return weight_table(d, order)


WeightStages = namedtuple("WeightStages", "euler sqrt taut product value")


@functools.cache
def weight_stages(pi, d):
    """The intermediate results of compute_weight(pi, d), from the public
    stage functions: Euler class of minus the vertex, its square root,
    the tautological factor, their product and its specialized value."""
    euler = euler_class(-vertex(pi, d), use_cy=True)
    sqrt = sqrt_form_product(euler, pi.size)
    taut = taut_factor(pi, d, ell_units=1)
    product = taut * sqrt
    return WeightStages(euler, sqrt, taut, product, specialize(product))
