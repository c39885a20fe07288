"""Same bytes from the CLI: a fixed grid of commands, each pinned by hash.

Each command runs in process through `cli.main`; its exit code, stdout
and stderr are hashed together and compared with the sha256 recorded in
`golden/same_bytes.json`. A refactor that is meant to change no number
must leave every hash in place, and a failure names its command.

The grid: the shipped configs; the four per-point analytic commands at
delta-own speeds around each kind's critical speed; short simulator runs
in both drive modes, below and above it; a critical-speed table; and
schedules at several eps, one of which leaves no target above R0 and,
in some, one that a run cannot reach (exit 2), before or after the rest;
totals and sweep counts at an eps so small that the radius stalls short
of its target (exit 2); one full, uncapped simulated expansion per kind;
one simulator run each at an odd bin count and at a given tick; one
schedule per kind at two eps, the farther target first; the benchmark's
defense shapes at the default 3600 bins, one speed below and one above
each kind's critical speed; a hopeless defense whose replay budget runs
out (exit 2); and one table each as JSON and at delta-reference speeds.

After a change that is meant to move numbers, rewrite the hashes with

    PYTHONPATH=src python tests/test_same_bytes.py

and review the diff of `golden/same_bytes.json` in the same change.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from sweepdefense import cli, protocols
from sweepdefense.scenario import ProtocolKind, ScenarioParams

REPO = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().parent / "golden" / "same_bytes.json"

SHIPPED = {
    "baseline-comparison": "totals",
    "defense-speeds": "critical-speeds",
    "expansion-times": "totals",
    "reach-circular": "max-radius",
    "reach-comparison": "max-radius",
    "schedule-circular": "schedule",
    "schedule-spiral": "schedule",
    "simulate-circular": "simulate",
    "simulate-spiral": "simulate",
    "sweeps-circular": "sweep-count",
    "sweeps-spiral": "sweep-count",
}
KINDS = ("circular-pincer", "spiral-pincer", "circular-same", "spiral-same")
TEAMS = ("2", "8", "32")


def commands():
    """The batch's argvs, in a fixed order. Config paths are relative to
    the repository root, where `run` resolves them."""
    for name, command in SHIPPED.items():
        yield [command, "--config", f"configs/{name}.cfg"]
    speeds = ["--speed-mode", "delta-own", "--dV", "0,0.5,3,40", "--eps", "0.1,0.01"]
    for command, kind, n in itertools.product(
        ("max-radius", "sweep-count", "totals", "schedule"), KINDS, TEAMS
    ):
        yield [command, "--protocol", kind, "--n", n, *speeds]
    for kind, n, mode, dV in itertools.product(
        KINDS, TEAMS, ("defense", "expansion"), ("-0.5", "0.5", "3")
    ):
        yield [
            "simulate", "--protocol", kind, "--n", n, "--speed-mode", "delta-own",
            "--dV", dV, "--mode", mode, "--bins", "720", "--max-sweeps", "6",
        ]
    yield ["critical-speeds", "--n", "2:128:2"]
    for kind, gaps in itertools.product(KINDS, ("0.3,1e4,1e-3", "0.3,1e4,1e-14", "1e-14,0.3")):
        yield ["schedule", "--protocol", kind, "--n", "8", "--speed-mode", "delta-own",
               "--dV", "0.5,3", "--eps", gaps]
    for command, kind in itertools.product(("totals", "sweep-count"), KINDS):
        yield [command, "--protocol", kind, "--n", "4", "--speed-mode", "delta-own", "--dV", "20",
               "--eps", "1e-14"]
    for kind in KINDS:
        # the last sweep's advance stops at the target, T_out_last
        yield ["simulate", "--protocol", kind, "--n", "8", "--speed-mode", "delta-own", "--dV", "3",
               "--mode", "expansion", "--bins", "360", "--eps", "20"]
    yield ["simulate", "--protocol", "spiral-same", "--n", "8", "--speed-mode", "delta-own", "--dV", "3",
           "--mode", "expansion", "--bins", "3601", "--max-sweeps", "2"]
    yield ["simulate", "--protocol", "circular-pincer", "--n", "8", "--speed-mode", "delta-own", "--dV", "3",
           "--mode", "expansion", "--bins", "720", "--max-sweeps", "3", "--dt", "0.01"]
    for kind in KINDS:
        # the farther target first: the nearer eps's rows are a prefix of
        # rows already written
        yield ["schedule", "--protocol", kind, "--n", "2,16", "--speed-mode", "delta-own",
               "--dV", "0.5,3", "--eps", "1e-3,0.1"]
    for kind, n in itertools.product(KINDS, (2, 32, 128)):
        # speeds a quarter of the way down to VT and 16% above critical,
        # to 4 digits, so a last-bit change in Vc keeps the command
        params = ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=n, eps=0.1)
        Vc = protocols.CRITICAL[ProtocolKind(kind)](params)
        yield ["simulate", "--mode", "defense", "--cycles", "3", "--R0", "400", "--r", "10",
               "--VT", "1", "--eps", "0.1", "--n", str(n), "--protocol", kind,
               "--Vs", f"{1.0 + 0.75 * (Vc - 1.0):.4g},{1.16 * Vc:.4g}"]
    # the front reaches the centre and its replays pass MAX_TICKS steps
    yield ["simulate", "--protocol", "spiral-pincer", "--R0", "5", "--r", "1", "--VT", "1",
           "--n", "2", "--Vs", "1.05", "--mode", "defense", "--bins", "360"]
    yield ["totals", "--protocol", ",".join(KINDS), "--n", "2,8", "--speed-mode", "delta-own",
           "--dV", "0.5,3", "--format", "json"]
    yield ["max-radius", "--protocol", ",".join(KINDS), "--n", "2,8", "--speed-mode",
           "delta-reference", "--ref-protocol", "spiral-pincer", "--ref-n", "4", "--dV", "1,5"]


def run(argv):
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(REPO / a) if a.startswith("configs/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.cache
def _expected():
    return json.loads(HASHES.read_text())


@pytest.mark.parametrize("argv", [" ".join(a) for a in commands()])
def test_command_gives_its_recorded_bytes(argv):
    assert run(argv.split()) == _expected()[argv], f"output of `sweepdefense {argv}` moved"


def test_every_recorded_command_is_in_the_batch():
    assert list(_expected()) == [" ".join(a) for a in commands()]


if __name__ == "__main__":
    hashes = {" ".join(a): run(a) for a in commands()}
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
    combined = hashlib.sha256("".join(hashes.values()).encode()).hexdigest()
    print(f"{len(hashes)} commands, combined {combined}", file=sys.stderr)
