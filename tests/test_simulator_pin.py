"""Pins the simulated T3D runs of the distributed programs.

The bulk (Versions 1, 2 and 3), lookahead and triangular-solve programs
run on the discrete-event machine.  The values below were recorded from
those programs before they took their current form (packed ``R`` handed
in, stacked shift payloads, one executor for real processes), so any
change to what the simulator charges shows up here.  The solve's
per-PE updates are charged as ``application`` now and as ``solve``
then; the pin checks the two together.
"""

import numpy as np
import pytest

from repro.parallel import simulate_factorization, simulate_triangular_solve
from repro.toeplitz import ar_block_toeplitz

#: name -> makespan, per-rank clock, shift words and messages sent,
#: broadcast and reduce words, and every nonzero per-category time.
PINNED = {
    'bulk_v1': {
        'makespan': 0.0008827884848484846,
        'clock': [
            0.0008827884848484846,
            0.0008827884848484846,
            0.0008827884848484846,
            0.0008827884848484846,
        ],
        'words': [96, 128, 160, 64],
        'messages': [8, 9, 10, 7],
        'bcast': [350, 350, 350, 350],
        'reduce': [0, 0, 0, 0],
        'categories': [
            {
                'application': 7.041818181818182e-05,
                'barrier': 8.400000000000001e-05,
                'blocking': 7.404666666666667e-05,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.0005695969696969698,
                'shift': 1.0060000000000002e-05,
            },
            {
                'application': 9.38909090909091e-05,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.00046372424242424235,
                'shift': 1.8413333333333335e-05,
            },
            {
                'application': 0.00014063636363636364,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.00042262545454545465,
                'shift': 1.2766666666666664e-05,
            },
            {
                'application': 0.0001873818181818182,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.0003729399999999999,
                'shift': 1.5706666666666666e-05,
            },
        ],
    },
    'bulk_v2': {
        'makespan': 0.0009494733333333332,
        'clock': [
            0.0009494733333333332,
            0.0009494733333333332,
            0.0009494733333333332,
            0.0009494733333333332,
        ],
        'words': [32, 64, 96, 0],
        'messages': [7, 7, 7, 7],
        'bcast': [350, 350, 350, 350],
        'reduce': [0, 0, 0, 0],
        'categories': [
            {
                'barrier': 8.400000000000001e-05,
                'blocking': 7.404666666666667e-05,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.0007089066666666666,
                'shift': 7.853333333333333e-06,
            },
            {
                'application': 7.021818181818182e-05,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.0005567884848484847,
                'shift': 1.5706666666666666e-05,
            },
            {
                'application': 0.0001637090909090909,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.00046944424242424253,
                'shift': 9.56e-06,
            },
            {
                'application': 0.0002572,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.0003715133333333334,
                'shift': 1.3999999999999998e-05,
            },
        ],
    },
    'bulk_v3': {
        'makespan': 0.0009880145454545452,
        'clock': [
            0.0009880145454545452,
            0.0009880145454545452,
            0.0009880145454545452,
            0.0009880145454545452,
        ],
        'words': [128, 128, 96, 96],
        'messages': [16, 16, 13, 13],
        'bcast': [322, 322, 322, 322],
        'reduce': [0, 0, 0, 0],
        'categories': [
            {
                'application': 0.00016956363636363634,
                'barrier': 8.400000000000001e-05,
                'blocking': 8.258000000000001e-05,
                'broadcast': 0.00012917333333333333,
                'idle': 0.0005077842424242427,
                'shift': 1.4913333333333335e-05,
            },
            {
                'application': 0.0001976909090909091,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00013028,
                'broadcast': 0.00012917333333333333,
                'idle': 0.0004319569696969699,
                'shift': 1.4913333333333335e-05,
            },
            {
                'application': 0.00022581818181818185,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00011010666666666667,
                'broadcast': 0.00012917333333333333,
                'idle': 0.0004263563636363639,
                'shift': 1.2560000000000002e-05,
            },
            {
                'application': 0.0002632545454545455,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00017370666666666668,
                'broadcast': 0.00012917333333333333,
                'idle': 0.00032532000000000014,
                'shift': 1.2560000000000002e-05,
            },
        ],
    },
    'bulk_v3_full_spread': {
        'makespan': 0.0012503096969696968,
        'clock': [
            0.0012503096969696968,
            0.0012503096969696968,
            0.0012503096969696968,
            0.0012503096969696968,
        ],
        'words': [0, 0, 0, 0],
        'messages': [7, 7, 7, 7],
        'bcast': [308, 308, 308, 308],
        'reduce': [0, 0, 0, 0],
        'categories': [
            {
                'application': 0.00034690909090909086,
                'barrier': 8.400000000000001e-05,
                'blocking': 5.702666666666667e-05,
                'broadcast': 0.00024042666666666658,
                'idle': 0.0005149472727272728,
                'shift': 6.999999999999999e-06,
            },
            {
                'application': 0.0003756181818181818,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00013024666666666668,
                'broadcast': 0.00024042666666666658,
                'idle': 0.00041301818181818184,
                'shift': 6.999999999999999e-06,
            },
            {
                'application': 0.0004043272727272727,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00014293999999999998,
                'broadcast': 0.00024042666666666658,
                'idle': 0.00037161575757575777,
                'shift': 6.999999999999999e-06,
            },
            {
                'application': 0.00043303636363636357,
                'barrier': 8.400000000000001e-05,
                'blocking': 0.00015563333333333329,
                'broadcast': 0.00024042666666666658,
                'idle': 0.00033021333333333337,
                'shift': 6.999999999999999e-06,
            },
        ],
    },
    'lookahead': {
        'makespan': 0.0007523763636363634,
        'clock': [
            0.0007523763636363634,
            0.0007523763636363634,
            0.0007523763636363634,
        ],
        'words': [192, 112, 144],
        'messages': [12, 7, 9],
        'bcast': [350, 350, 350],
        'reduce': [0, 0, 0],
        'categories': [
            {
                'application': 0.00016430909090909093,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.00034818727272727275,
                'shift': 1.712e-05,
            },
            {
                'application': 0.00021125454545454548,
                'blocking': 0.00022214,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.00023432848484848483,
                'shift': 9.986666666666665e-06,
            },
            {
                'application': 0.00011736363636363638,
                'blocking': 0.00014809333333333334,
                'broadcast': 7.466666666666666e-05,
                'idle': 0.0003994127272727272,
                'shift': 1.2839999999999997e-05,
            },
        ],
    },
    'solve_k1': {
        'makespan': 0.00042648,
        'clock': [0.00042648, 0.00042648, 0.00042648],
        'words': [0, 0, 0],
        'messages': [0, 0, 0],
        'bcast': [60, 60, 60],
        'reduce': [30, 30, 30],
        'categories': [
            {
                'barrier': 2.4e-05,
                'broadcast': 0.00016320000000000004,
                'idle': 7.127999999999994e-05,
                'reduce': 8.160000000000002e-05,
                'solve': 8.64e-05,
            },
            {
                'barrier': 2.4e-05,
                'broadcast': 0.00016320000000000004,
                'idle': 9.935999999999992e-05,
                'reduce': 8.160000000000002e-05,
                'solve': 5.8320000000000004e-05,
            },
            {
                'barrier': 2.4e-05,
                'broadcast': 0.00016320000000000004,
                'idle': 8.639999999999996e-05,
                'reduce': 8.160000000000002e-05,
                'solve': 7.128000000000001e-05,
            },
        ],
    },
    'solve_k32': {
        'makespan': 0.005463360000000005,
        'clock': [
            0.005463360000000005,
            0.005463360000000005,
            0.005463360000000005,
        ],
        'words': [0, 0, 0],
        'messages': [0, 0, 0],
        'bcast': [1920, 1920, 1920],
        'reduce': [960, 960, 960],
        'categories': [
            {
                'barrier': 2.4e-05,
                'broadcast': 0.00026240000000000004,
                'idle': 0.002280960000000001,
                'reduce': 0.0001312,
                'solve': 0.0027648,
            },
            {
                'barrier': 2.4e-05,
                'broadcast': 0.00026240000000000004,
                'idle': 0.003179520000000002,
                'reduce': 0.0001312,
                'solve': 0.0018662400000000001,
            },
            {
                'barrier': 2.4e-05,
                'broadcast': 0.00026240000000000004,
                'idle': 0.002764800000000002,
                'reduce': 0.0001312,
                'solve': 0.0022809600000000003,
            },
        ],
    },
    'solve_v2_k1': {
        'makespan': 0.00030936,
        'clock': [0.00030936, 0.00030936],
        'words': [0, 0],
        'messages': [0, 0],
        'bcast': [60, 60],
        'reduce': [30, 30],
        'categories': [
            {
                'barrier': 1.2e-05,
                'broadcast': 8.160000000000002e-05,
                'idle': 4.535999999999999e-05,
                'reduce': 4.080000000000001e-05,
                'solve': 0.0001296,
            },
            {
                'barrier': 1.2e-05,
                'broadcast': 8.160000000000002e-05,
                'idle': 8.856e-05,
                'reduce': 4.080000000000001e-05,
                'solve': 8.640000000000001e-05,
            },
        ],
    },
}

FACTOR_CASES = {
    "bulk_v1": (4, 1, "bulk"),
    "bulk_v2": (4, 2, "bulk"),
    "bulk_v3": (4, 0.5, "bulk"),
    "bulk_v3_full_spread": (4, 0.25, "bulk"),
    "lookahead": (3, 1, "lookahead"),
}

#: name -> (nproc, b, k); the right-hand sides are drawn in this order.
SOLVE_CASES = {
    "solve_k1": (3, 1, 1),
    "solve_k32": (3, 1, 32),
    "solve_v2_k1": (2, 2, 1),
}


def _summary(rep):
    return {
        "makespan": rep.makespan,
        "clock": [r.time for r in rep.ranks],
        "words": [r.words_sent for r in rep.ranks],
        "messages": [r.messages_sent for r in rep.ranks],
        "bcast": [r.bcast_words for r in rep.ranks],
        "reduce": [r.reduce_words for r in rep.ranks],
        "categories": [{k: v for k, v in r.by_category.items() if v}
                       for r in rep.ranks],
    }


def _merge_solve_updates(categories):
    out = []
    for cats in categories:
        cats = dict(cats)
        cats["solve"] = cats.get("solve", 0.0) + cats.pop("application", 0.0)
        out.append(cats)
    return out


def _check(got, want):
    assert got["makespan"] == pytest.approx(want["makespan"], rel=1e-12)
    assert got["clock"] == pytest.approx(want["clock"], rel=1e-12)
    for key in ("words", "messages", "bcast", "reduce"):
        assert got[key] == want[key], key
    assert len(got["categories"]) == len(want["categories"])
    for cats, expected in zip(got["categories"], want["categories"]):
        assert sorted(cats) == sorted(expected)
        for key, value in expected.items():
            assert cats[key] == pytest.approx(value, rel=1e-12), key


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_factor_programs_pinned(name):
    nproc, b, program = FACTOR_CASES[name]
    t = ar_block_toeplitz(8, 4, seed=1)
    run = simulate_factorization(t, nproc, b=b, schedule=program)
    _check(_summary(run.report), PINNED[name])


def test_solve_program_pinned():
    t = ar_block_toeplitz(10, 3, seed=5)
    rng = np.random.default_rng(7)
    for name, (nproc, b, k) in SOLVE_CASES.items():
        run = simulate_factorization(t, nproc, b=b)
        rhs = (rng.standard_normal(t.order) if k == 1
               else rng.standard_normal((t.order, k)))
        _x, rep = simulate_triangular_solve(run, rhs)
        got = _summary(rep)
        got["categories"] = _merge_solve_updates(got["categories"])
        _check(got, PINNED[name])
