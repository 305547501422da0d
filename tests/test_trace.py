"""The record types: ``TraceEvent`` and ``Starter`` keep their fields, their
defaults, their ``repr`` and their immutability, and a solve's trace replays
and renders exactly as it did when these outputs were frozen."""

import hashlib
import inspect

import pytest

from minuet_sudoku import (Starter, Structure, TraceEvent, enumerate_starters,
                           parse_grid, replay_trace, solve, step3_fixpoint)
from minuet_sudoku.harness import render_trace

from puzzles import HARD, TRICKY

TRACE_FIELDS = {"step": inspect.Parameter.empty, "rule": inspect.Parameter.empty,
                "view": None, "structure": None, "cells": (), "digits": (),
                "inked": (), "erased": ()}
STARTER_FIELDS = ("kind", "cells", "digits", "structure", "score")

TRICKY_SUMMARY = """\
trace: 227 events, 183 inks, 321 erasures
[1.1] hidden single: 9
[1.1] passive single: 8
[1.2] half double: 31
[1.3] hidden double: 3
[2] half double block: 2
[2] naked single: 1
[3.1] (circle) hidden single: 20
[3.1] (circle) naked single: 53
[3.1] (square) hidden single: 13
[3.1] (square) naked single: 29
[3.2] (square) hidden double: 1
[3.2] (square) naked double: 1
[3.3] (square) naked triple: 1
[4] (circle) starter: 6
[4] (square) starter: 6
[4a] trick (a): 3
[commit] commit circle: 28
[commit] commit square: 12"""
TRICKY_FULL_SHA256 = "a44f054fb9499cf48e9c5b7c7d6018b2e8f17d748497fd188155a8d167b87094"


def parameters(cls) -> dict:
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()}


def test_trace_event_fields_defaults_and_repr():
    assert parameters(TraceEvent) == TRACE_FIELDS
    assert list(parameters(TraceEvent)) == list(TRACE_FIELDS)
    ev = TraceEvent("3.2", "naked double", structure=Structure("col", 2), cells=(2, 29),
                    digits=(2, 7), erased=((11, 2),))
    assert repr(ev) == ("TraceEvent(step='3.2', rule='naked double', view=None, "
                        "structure=Structure(kind='col', index=2), cells=(2, 29), "
                        "digits=(2, 7), inked=(), erased=((11, 2),))")
    assert repr(TraceEvent("1.1", "hidden single")) == (
        "TraceEvent(step='1.1', rule='hidden single', view=None, structure=None, "
        "cells=(), digits=(), inked=(), erased=())")


def test_starter_fields_repr_and_methods():
    assert list(parameters(Starter)) == list(STARTER_FIELDS)
    assert all(default is inspect.Parameter.empty for default in parameters(Starter).values())
    st = Starter("half_double", (1, 2), (3,), Structure("row", 0), 4)
    assert repr(st) == ("Starter(kind='half_double', cells=(1, 2), digits=(3,), "
                        "structure=Structure(kind='row', index=0), score=4)")
    assert st.choices() == ((1, 3), (2, 3))
    assert st.describe() == "starter half double 3 in row 1 cells r1c2,r1c3"


@pytest.mark.parametrize("record", [
    TraceEvent("4", "starter", view="circle", cells=(5,), digits=(1,)),
    Starter("bivalue", (5,), (1, 2), None, 3),
], ids=["TraceEvent", "Starter"])
def test_records_are_immutable(record):
    for name in inspect.signature(type(record)).parameters:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        assert getattr(record, name) == before


def test_enumerate_starters_returns_a_list_of_starters():
    grid = parse_grid(HARD)
    step3_fixpoint(grid)
    starters = enumerate_starters(grid)
    assert type(starters) is list and starters
    assert all(type(st) is Starter for st in starters)


def test_replay_and_render_of_one_solve_are_unchanged():
    outcome = solve(TRICKY)
    assert outcome.solved
    assert replay_trace(outcome.start.copy(), outcome.trace) == outcome.grid
    assert render_trace(outcome.trace, "summary") == TRICKY_SUMMARY
    full = render_trace(outcome.trace, "full")
    assert hashlib.sha256(full.encode()).hexdigest() == TRICKY_FULL_SHA256
