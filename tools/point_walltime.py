"""Median in-process times of the single-frequency steps, checkouts interleaved.

    python3 tools/point_walltime.py [-n N] [CHECKOUT ...]

runs N rounds (default 11). Each round spawns one process per CHECKOUT
(default: this checkout), with that checkout's sources on the path, in the
order given on the command line, so a drift in machine speed reaches every
checkout alike. Each process takes each step below once untimed and then
times it 7 times in a row, keeping the median, in microseconds:

- one ``solve_ac`` of the default inter-body circuit at 500 kHz;
- ``calibration_step``: one root-finding step of
  ``calibrate_return_scale(80.0, c_c=21e-12)``, at scale 1.1: the function
  that the calibration hands to ``bodychannel._bisect_root``, captured
  once, so the step is timed the same way whatever it is built from;
- one ``calibrate_return_scale(80.0, c_c=21e-12)``;
- one ``calibrate_anechoic_boost()``;
- 45 ``max_detection_distance`` calls on the default scenario, 100 kHz - 1 GHz;
- ``crossover``: one EQS to EM ``crossover_frequency`` on a fresh copy of
  ``default_region_config("anechoic")``, so that neither its stamp nor its
  scan is kept from the call before: the chunked scan and the root search;
- 40 ``load_config`` reads of the bundled ``inter_body.cfg``;
- ``ladder_sweep``: a fresh parse and a 100-point ``transfer`` of a
  64-section RC ladder and of a 64-section RLC ladder;
- ``resistive_sweep``: a fresh build and a 300-point ``transfer``, 100 kHz -
  1 GHz, of the default inter-body circuit with a 50 ohm load.

It prints, for each step, the median over the rounds of each checkout.
"""

import argparse
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
STEPS = ("solve_ac", "calibration_step", "calibrate_return_scale", "calibrate_anechoic_boost",
         "45 max_detection_distance", "crossover", "40 load_config", "ladder_sweep",
         "resistive_sweep")
REPEATS = 7


def _ladder_text(sections: int, inductors: bool) -> str:
    """Series 1 kOhm (with 1 H across it if ``inductors``) and 1 nF to ground per section.

    At 64 sections the inductors take over below 159 Hz, within a decade of
    the RC diffusion corner at 39 Hz.
    """
    lines = ["V1 1 0 1"]
    for k in range(1, sections + 1):
        lines += [f"R{k} {k} {k + 1} 1k", f"C{k} {k + 1} 0 1n"]
        if inductors:
            lines.append(f"L{k} {k} {k + 1} 1")
    return "\n".join(lines)


def _step_calls() -> dict:
    """The timed steps as zero-argument callables, from the eqshbc on the path."""
    from eqshbc import bodychannel, config, multiregion, netlist, solver

    params = bodychannel.InterBodyParams(bodychannel.BodyChannelParams(), c_c=21e-12)
    circuit = bodychannel.build_inter_body(params)
    region = multiregion.default_region_config()
    freqs = [10 ** (5.0 + 4.0 * k / 44) for k in range(45)]

    steps = []
    bisect_root = bodychannel._bisect_root
    bodychannel._bisect_root = lambda fn, lo, hi: steps.append(fn) or lo
    try:
        bodychannel.calibrate_return_scale(80.0, c_c=21e-12)
    finally:
        bodychannel._bisect_root = bisect_root
    [step] = steps

    def detection():
        for f in freqs:
            multiregion.max_detection_distance(region, f, -90.0)

    chamber = multiregion.default_region_config("anechoic")

    def crossover():
        multiregion.crossover_frequency(dataclasses.replace(chamber), multiregion.RegionLabel.EQS,
                                        multiregion.RegionLabel.EM_SMALL_MONOPOLE)

    def configs():
        for _ in range(40):
            config.load_config("inter_body.cfg")

    ladders = [_ladder_text(64, inductors) for inductors in (False, True)]
    corner = 1.0 / (2.0 * math.pi * 1e3 * 1e-9 * 64 ** 2)  # the RC diffusion corner
    grid = solver.FrequencyGrid.log(corner / 100.0, corner * 100.0, 100)

    def ladder_sweep():
        for text in ladders:
            solver.transfer(netlist.parse_netlist(text), "V1", (65, 0), grid)

    resistive = bodychannel.InterBodyParams(
        bodychannel.BodyChannelParams(load=bodychannel.LoadSpec.resistive(50.0)), c_c=21e-12)
    band = solver.FrequencyGrid.log(1e5, 1e9, 300)

    def resistive_sweep():
        solver.transfer(bodychannel.build_inter_body(resistive), bodychannel.SOURCE_LABEL,
                        bodychannel.INTER_PROBE, band)

    return dict(zip(STEPS, (
        lambda: solver.solve_ac(circuit, 500e3), lambda: step(1.1),
        lambda: bodychannel.calibrate_return_scale(80.0, c_c=21e-12),
        bodychannel.calibrate_anechoic_boost, detection, crossover, configs, ladder_sweep,
        resistive_sweep)))


def _time_steps() -> dict[str, float]:
    """Each step's median time over REPEATS calls after an untimed one, in microseconds."""
    times = {}
    for step, call in _step_calls().items():
        call()
        seconds = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            call()
            seconds.append(perf_counter() - t0)
        times[step] = statistics.median(seconds) * 1e6
    return times


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        print(json.dumps(_time_steps()))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=11, help="rounds, one process per checkout each")
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkouts]
    times = {path: {step: [] for step in STEPS} for path in checkouts}
    for _ in range(args.n):
        for path in checkouts:
            env = dict(os.environ, PYTHONPATH=str(path / "src"))
            out = subprocess.run([sys.executable, __file__, "--child"], env=env, cwd=path,
                                 check=True, capture_output=True, text=True).stdout
            for step, us in json.loads(out).items():
                times[path][step].append(us)
    for k, path in enumerate(checkouts, start=1):
        print(f"checkout {k}: {path}")
    print(f"{'step':<26}" + "".join(f"  {f'checkout {k}':>12}"
                                    for k in range(1, len(checkouts) + 1)))
    for step in STEPS:
        medians = (statistics.median(times[path][step]) for path in checkouts)
        print(f"{step:<26}" + "".join(f"  {us:9.1f} us" for us in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
