"""Configuration-driven MZI studies: run, sweep, phase drift, simulated counts.

A scenario is a single structured config (JSON, or a dotted key-tree) that
declares the two input states, ordered per-mode modifications at the input or
output stage, the interferometer phase, the noise model, the detector list,
and which metrics to compute.

Each pipeline's route (`_Route`) is decided once and shared by its phases:
its prefix record, the channel after the MZI and each detector's optimum.  The
prefix record (`_Prefix`), built piece by piece on first read and shared by
every config with the same prefix, is the input stage, heralds included, as
one image of the inputs' Wigner expressions (a Gaussian input is one term).
Everything after it is one Gaussian channel X = A(phi) Y + b + xi on the
prefix Y, A = K M(phi), with the uniform loss the first map of K, since it
commutes with the passive MZI.  The route reads the path off the record: one
arm of one Gaussian term, with no herald after the phase, is seen through
the channel in one trigonometric form (`_Route.trig`), the image every
Gaussian read takes (`_Route.image`); any other prefix stays as it is while
only the observable moves, so an arm at a phase is read through the channel
(`_Route.read`, the one reader).  A herald at either stage adds its ancilla
to the prefix as one more mode, its coupling to a channel and its projector
to every read; a single herald's two arms, success and failure, read one
projector pair and share the projected part.  The prefix and each phase give
one record (p, arms), p the success probability and 1 - p the failure arm's
weight.  A detector's phase variance comes from one exact phase signal
(`_optimal_phi`), which gives its optimum and its value at any phi.  The
photon-number reads build the detected mode off the same channel
(`_Route.detected`), and `simulate_counts` reads its T grid through the route
of the config whose herald takes the grid, one channel per T (`_counted`).

Identical config plus seed gives byte-identical CSV/JSON output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
import numpy.random  # loaded lazily otherwise, on the first draw of a `counts` run

from . import __version__
from .errors import ConfigError, DegenerateBranch, ImprobableBranch, PurityViolation, SignalStationary
from . import conditional as cond
from . import estimation as est
from . import gaussian as ga
from . import measurements as meas
from . import symplectic as sym
from . import wigner as wig

SWEEP_PARAMETERS = ("phi", "alpha2", "r", "T", "L", "D", "nbar", "nbar_env", "m")
METRICS = ("phase_variance", "cfi", "qfi", "snr", "distributions")
DRIFT_SIGMA_DEFAULTS = {"parity": 0.001, "default": 0.15}
DRIFT_UNIFORM_WIDTH = 0.2 * math.pi  # half-width in rad of the uniform20 drift window about the optimum
# Searched phase-variance minima within this relative distance of the lowest are equal.
OPTIMUM_TIE = 1e-9
# A herald read p is resolved for the quotient jets of a phase signal where p >= this times |p''|, 1e-4 rad
# from a quadratic zero (subtracted_thermal's V keeps about 1e-7 there), and where the terms of its read
# (1 and -2 pi F_0 of a click herald, say) cancel to no less than 1 / HERALD_CANCELLATION of their magnitude.
HERALD_RESOLUTION = 5e-9
HERALD_CANCELLATION = 1e4
# Prefix records kept: every point of a sweep over a parameter after the MZI reads one, L and D included, since
# the uniform loss is the first map after the MZI.
PREFIX_CACHE_SIZE = 8
# Most points of a grid, a phi grid in a config or a --grid option
MAX_GRID_POINTS = 100_000
# Largest squeeze parameter r of a squeeze or an SPDC addition, and of the
# summed r of the squeezes on one mode and stage.  The rounding
# defect of a squeezer matrix grows like eps cosh^2 r and passes the symplectic
# tolerance at some angle near r = 6.8 (at r = 6 its worst is 1.9e-11).
MAX_SQUEEZE_R = 6.0


# ---------------------------------------------------------------------------
# Config parsing and validation.
# ---------------------------------------------------------------------------


def _object(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {d!r}")
    return d


def _list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected a list, got {v!r}")
    return v


def _reject_unknown(d: dict, allowed: set, path: str) -> None:
    for k in _object(d, path):
        if k not in allowed:
            raise ConfigError(f"{path}.{k}" if path else k, f"unknown key (allowed: {sorted(allowed)})")


def _need(d: dict, key: str, path: str):
    if key not in _object(d, path):
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return d[key]


def _number(v, path: str, lo=None, hi=None) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(path, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(path, f"value {v} below minimum {lo}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"value {v} above maximum {hi}")
    return v


def grid_points(span: float, path: str) -> int:
    """The number of points of an inclusive grid whose stop lies `span` steps past its start, checked against
    MAX_GRID_POINTS before any grid is built."""
    if not span < MAX_GRID_POINTS:
        raise ConfigError(path, f"more than {MAX_GRID_POINTS} grid points")
    return math.floor(span + 1e-9) + 1


def _mode(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v not in (1, 2):
        raise ConfigError(path, f"mode must be the integer 1 or 2, got {v!r}")
    return v


@dataclass(frozen=True)
class InputSpec:
    kind: str
    alpha: float = 0.0
    theta: float = 0.0
    nbar: float = 0.0
    n: int = 1

    KINDS = ("vacuum", "coherent", "thermal", "fock")

    @staticmethod
    def from_dict(d: dict, path: str) -> "InputSpec":
        kind = _need(d, "kind", path)
        if kind not in InputSpec.KINDS:
            raise ConfigError(f"{path}.kind", f"unknown input kind {kind!r} (menu: {InputSpec.KINDS})")
        if kind == "vacuum":
            _reject_unknown(d, {"kind"}, path)
            return InputSpec("vacuum")
        if kind == "coherent":
            _reject_unknown(d, {"kind", "alpha", "theta"}, path)
            return InputSpec("coherent", alpha=_number(_need(d, "alpha", path), f"{path}.alpha", lo=0.0),
                             theta=_number(d.get("theta", 0.0), f"{path}.theta"))
        if kind == "thermal":
            _reject_unknown(d, {"kind", "nbar"}, path)
            return InputSpec("thermal", nbar=_number(_need(d, "nbar", path), f"{path}.nbar", lo=0.0))
        _reject_unknown(d, {"kind", "n"}, path)
        n = d.get("n", 1)
        if n != 1:
            raise ConfigError(f"{path}.n", "the input menu offers the single-photon Fock state only (n = 1)")
        return InputSpec("fock", n=1)

    def gaussian(self) -> ga.GaussianState | None:
        if self.kind == "vacuum":
            return ga.vacuum_state(1)
        if self.kind == "coherent":
            return ga.coherent_state(self.alpha, self.theta)
        if self.kind == "thermal":
            return ga.thermal_state(self.nbar)
        return None

    def expr(self) -> wig.WignerExpr:
        g = self.gaussian()
        return wig.from_gaussian(g) if g is not None else wig.fock_wigner(self.n)


@dataclass(frozen=True)
class ModificationSpec:
    op: str
    stage: str
    mode: int
    r: float = 0.0
    theta: float = 0.0
    alpha: float = 0.0
    m: int | str = 1
    T: float = 1.0
    mechanism: str = "bs"

    OPS = ("squeeze", "displace", "add", "subtract")

    @staticmethod
    def from_dict(d: dict, path: str) -> "ModificationSpec":
        op = _need(d, "op", path)
        if op not in ModificationSpec.OPS:
            raise ConfigError(f"{path}.op", f"unknown modification {op!r} (menu: {ModificationSpec.OPS})")
        stage = d.get("stage", "input")
        if stage not in ("input", "output"):
            raise ConfigError(f"{path}.stage", f"stage must be 'input' or 'output', got {stage!r}")
        mode = _mode(_need(d, "mode", path), f"{path}.mode")
        if op == "squeeze":
            _reject_unknown(d, {"op", "stage", "mode", "r", "theta", "gain"}, path)
            if "gain" in d and "r" in d:
                raise ConfigError(f"{path}.gain", "a squeeze takes its r or its gain, not both")
            r = (math.acosh(math.sqrt(_number(d["gain"], f"{path}.gain", lo=1.0, hi=math.cosh(MAX_SQUEEZE_R) ** 2)))
                 if "gain" in d else _number(_need(d, "r", path), f"{path}.r", lo=0.0, hi=MAX_SQUEEZE_R))
            return ModificationSpec("squeeze", stage, mode, r=r, theta=_number(d.get("theta", 0.0), f"{path}.theta"))
        if op == "displace":
            _reject_unknown(d, {"op", "stage", "mode", "alpha", "theta"}, path)
            return ModificationSpec("displace", stage, mode,
                                    alpha=_number(_need(d, "alpha", path), f"{path}.alpha", lo=0.0),
                                    theta=_number(d.get("theta", 0.0), f"{path}.theta"))
        if op == "add":
            _reject_unknown(d, {"op", "stage", "mode", "m", "mechanism", "T", "r", "theta"}, path)
            mech = d.get("mechanism", "bs")
            if mech not in ("bs", "spdc"):
                raise ConfigError(f"{path}.mechanism", f"mechanism must be 'bs' or 'spdc', got {mech!r}")
            m = d.get("m", 1)
            if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= cond.M_CUTOFF:
                raise ConfigError(f"{path}.m", f"m must be an integer in 1..{cond.M_CUTOFF}")
            if mech == "bs":
                return ModificationSpec("add", stage, mode, m=m, mechanism="bs",
                                        T=_number(_need(d, "T", path), f"{path}.T", lo=0.0, hi=1.0))
            return ModificationSpec("add", stage, mode, m=m, mechanism="spdc",
                                    r=_number(_need(d, "r", path), f"{path}.r", lo=0.0, hi=MAX_SQUEEZE_R),
                                    theta=_number(d.get("theta", 0.0), f"{path}.theta"))
        _reject_unknown(d, {"op", "stage", "mode", "m", "T"}, path)
        m = d.get("m", 1)
        if m != "click" and (not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= cond.M_CUTOFF):
            raise ConfigError(f"{path}.m", f"m must be 'click' or an integer in 1..{cond.M_CUTOFF}")
        return ModificationSpec("subtract", stage, mode, m=m,
                                T=_number(_need(d, "T", path), f"{path}.T", lo=0.0, hi=1.0))

    @property
    def heralded(self) -> bool:
        return self.op in ("add", "subtract")


@dataclass(frozen=True)
class NoiseSpec:
    loss: ga.LossSpec | None = None
    thermal_nbar: float = 0.0
    thermal_eta: float = 1.0
    thermal_modes: tuple = (1, 2)
    has_thermal: bool = False

    @staticmethod
    def from_dict(d: dict, path: str) -> "NoiseSpec":
        _reject_unknown(d, {"loss", "thermal"}, path)
        loss = None
        if "loss" in d:
            ld = d["loss"]
            _reject_unknown(ld, {"L", "D"}, f"{path}.loss")
            loss = ga.LossSpec(L=_number(ld.get("L", 0.0), f"{path}.loss.L", 0.0, 1.0),
                               D=_number(ld.get("D", 1.0), f"{path}.loss.D", 0.0, 1.0))
        if "thermal" in d:
            td = d["thermal"]
            _reject_unknown(td, {"nbar_env", "eta", "modes"}, f"{path}.thermal")
            modes = td.get("modes", [1, 2])
            if not isinstance(modes, list) or not modes:
                raise ConfigError(f"{path}.thermal.modes", "modes must be a non-empty subset of [1, 2]")
            modes = tuple(_mode(m, f"{path}.thermal.modes.{i}") for i, m in enumerate(modes))
            return NoiseSpec(loss=loss, has_thermal=True,
                             thermal_nbar=_number(_need(td, "nbar_env", f"{path}.thermal"),
                                                  f"{path}.thermal.nbar_env", lo=0.0),
                             thermal_eta=_number(_need(td, "eta", f"{path}.thermal"),
                                                 f"{path}.thermal.eta", 0.0, 1.0),
                             thermal_modes=modes)
        return NoiseSpec(loss=loss)


@dataclass(frozen=True)
class ScenarioConfig:
    inputs: tuple
    modifications: tuple
    phi: float
    noise: NoiseSpec
    detection: tuple
    metrics: tuple
    phi_grid: tuple | None = None
    raw: dict = field(compare=False, default_factory=dict)

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        _reject_unknown(d, {"inputs", "modifications", "interferometer", "noise", "detection", "metrics"}, "")
        raw_inputs = _need(d, "inputs", "")
        if not isinstance(raw_inputs, list) or len(raw_inputs) != 2:
            raise ConfigError("inputs", "exactly two input modes are required")
        inputs = tuple(InputSpec.from_dict(x, f"inputs.{i}") for i, x in enumerate(raw_inputs))

        mods = []
        squeezing: dict[tuple, float] = {}
        for i, x in enumerate(_list(d.get("modifications", []), "modifications")):
            spec = ModificationSpec.from_dict(x, f"modifications.{i}")
            if spec.op == "squeeze":
                # squeezes on one mode compose to at most their summed r, which the cap bounds too
                key = (spec.mode, spec.stage)
                squeezing[key] = squeezing.get(key, 0.0) + spec.r
                if squeezing[key] > MAX_SQUEEZE_R:
                    raise ConfigError(
                        f"modifications.{i}",
                        f"squeezes on mode {spec.mode} at the {spec.stage} stage sum to r = {squeezing[key]:g}, "
                        f"above the maximum {MAX_SQUEEZE_R:g}",
                    )
            if (
                spec.op == "displace"
                and spec.stage == "input"
                and inputs[spec.mode - 1].kind == "vacuum"
                and not any(m.mode == spec.mode for m in mods)
            ):
                raise ConfigError(
                    f"modifications.{i}",
                    "displacing a bare vacuum input is redundant; use a coherent input instead",
                )
            mods.append(spec)

        inter = _need(d, "interferometer", "")
        _reject_unknown(inter, {"phi"}, "interferometer")
        raw_phi = _need(inter, "phi", "interferometer")
        phi_grid = None
        if isinstance(raw_phi, dict):
            _reject_unknown(raw_phi, {"start", "stop", "step"}, "interferometer.phi")
            start = _number(_need(raw_phi, "start", "interferometer.phi"), "interferometer.phi.start")
            stop = _number(_need(raw_phi, "stop", "interferometer.phi"), "interferometer.phi.stop")
            step = _number(_need(raw_phi, "step", "interferometer.phi"), "interferometer.phi.step")
            if step <= 0.0 or stop < start:
                raise ConfigError("interferometer.phi", "need stop >= start and step > 0")
            n = grid_points((stop - start) / step, "interferometer.phi")
            phi_grid = tuple(start + step * k for k in range(n))
            phi = phi_grid[0]
        else:
            phi = _number(raw_phi, "interferometer.phi")

        noise = NoiseSpec.from_dict(d.get("noise", {}), "noise")

        det = []
        for i, x in enumerate(_list(d.get("detection", []), "detection")):
            p = f"detection.{i}"
            _reject_unknown(x, {"scheme", "mode", "mode_b", "angle"}, p)
            kind = _need(x, "scheme", p)
            mode = _mode(x.get("mode", 1), f"{p}.mode")
            mode_b = None if x.get("mode_b") is None else _mode(x["mode_b"], f"{p}.mode_b")
            angle = _number(x.get("angle", 0.0), f"{p}.angle")
            try:
                det.append(meas.DetectionScheme(kind, mode=mode, mode_b=mode_b, angle=angle))
            except ValueError as exc:
                raise ConfigError(p, str(exc)) from exc
        metrics = tuple(_list(d.get("metrics", ["phase_variance"]), "metrics"))
        for i, m in enumerate(metrics):
            if m not in METRICS:
                raise ConfigError(f"metrics.{i}", f"unknown metric {m!r} (menu: {METRICS})")
        heralds = [m for m in (mods) if m.heralded]
        if len(heralds) > 1 and "cfi" in metrics:
            raise ConfigError("metrics", "cfi with more than one heralded modification is not supported")
        return ScenarioConfig(inputs, tuple(mods), phi, noise, tuple(det), metrics, phi_grid=phi_grid, raw=d)

    def with_values(self, **updates) -> "ScenarioConfig":
        d = json.loads(json.dumps(self.raw))
        for key, value in updates.items():
            _apply_sweep_value(d, key, value)
        return ScenarioConfig.from_dict(d)


def _apply_sweep_value(d: dict, parameter: str, value: float) -> None:
    """Rewrite the first matching site of a sweep parameter in a raw config dict."""
    if parameter == "phi":
        d["interferometer"]["phi"] = value
        return
    if parameter == "alpha2":
        for x in d["inputs"]:
            if x.get("kind") == "coherent":
                x["alpha"] = math.sqrt(value)
                return
        raise ConfigError("inputs", "sweep parameter alpha2 needs a coherent input")
    if parameter == "nbar":
        for x in d["inputs"]:
            if x.get("kind") == "thermal":
                x["nbar"] = value
                return
        raise ConfigError("inputs", "sweep parameter nbar needs a thermal input")
    if parameter == "r":
        for x in d.get("modifications", []):
            if x.get("op") == "squeeze":  # the swept r replaces a gain
                x.pop("gain", None)
                x["r"] = value
                return
        raise ConfigError("modifications", "sweep parameter r needs a squeeze modification")
    if parameter in ("T", "m"):
        if parameter == "m" and not float(value).is_integer():
            raise ConfigError("sweep", f"sweep parameter m takes integer values, got {value!r}")
        for x in d.get("modifications", []):
            # SPDC additions have no beam-splitter transmissivity to sweep, nor click subtractions a photon number
            skip = x.get("mechanism") == "spdc" if parameter == "T" else x.get("m") == "click"
            if x.get("op") in ("add", "subtract") and not skip:
                x[parameter] = value if parameter == "T" else int(value)
                return
        raise ConfigError(
            "modifications", f"sweep parameter {parameter} needs a matching add/subtract modification"
        )
    if parameter in ("L", "D"):
        d.setdefault("noise", {}).setdefault("loss", {})[parameter] = value
        return
    if parameter == "nbar_env":
        if "thermal" not in d.get("noise", {}):
            raise ConfigError("noise", "sweep parameter nbar_env needs a thermal noise model")
        d["noise"]["thermal"]["nbar_env"] = value
        return
    raise ConfigError("sweep", f"unknown sweep parameter {parameter!r} (menu: {SWEEP_PARAMETERS})")


def load_config(path: str) -> ScenarioConfig:
    """Load a config file: JSON, or a dotted key-tree (`a.b.0.c = value`, values in JSON syntax)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    else:
        data = _parse_key_tree(text)
    return ScenarioConfig.from_dict(data)


def _parse_key_tree(text: str) -> dict:
    root: dict = {}
    prefix: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            prefix = line[1:-1].strip().split(".")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected `key = value`, got {line!r}")
        key, _, raw = line.partition("=")
        segments = prefix + key.strip().split(".")
        try:
            value = json.loads(raw.strip())
        except json.JSONDecodeError:
            value = raw.strip()
        _set_path(root, segments, value, lineno)
    return root


def _set_path(node, segments: list[str], value, lineno: int) -> None:
    for i, seg in enumerate(segments):
        last = i == len(segments) - 1
        is_index = seg.isdecimal()
        if is_index:
            idx = int(seg)
            if not isinstance(node, list):
                raise ConfigError(f"line {lineno}", f"cannot index non-list with {seg!r}")
            while len(node) <= idx:
                node.append(None)
            if last:
                node[idx] = value
            else:
                if node[idx] is None:
                    node[idx] = [] if segments[i + 1].isdecimal() else {}
                node = node[idx]
        else:
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}", f"cannot key into non-object with {seg!r}")
            if last:
                node[seg] = value
            else:
                if seg not in node or node[seg] is None:
                    node[seg] = [] if segments[i + 1].isdecimal() else {}
                node = node[seg]


# ---------------------------------------------------------------------------
# Pipeline construction.
# ---------------------------------------------------------------------------


def _ancillas(mods) -> tuple:
    """The Fock state of each herald's ancilla among `mods` (0 for vacuum), in order, as the prefix record keys them."""
    return tuple(_herald_args(m)[1] for m in mods if m.heralded)


def _herald_reads(mods) -> tuple:
    """The arm reads of the heralds among `mods`, as signed products for `wig.herald_read`: the success read, in
    which herald j reads its ancilla (variables 4 + 2j, 5 + 2j) through its projector and the success arm the
    product of them, then for a single herald its complement, the projector pair's other read (`wig.projector`)."""
    heralds = [m for m in mods if m.heralded]
    success = wig.UNHERALDED
    for j, mod in enumerate(heralds):
        n, click = _herald_args(mod)[2:]
        success = tuple((s1 * s2, p1 + p2) for s1, p1 in success for s2, p2 in wig.projector(4 + 2 * j, n, click))
    return (success, wig.projector(4, n, not click)) if len(heralds) == 1 else (success,)


def _herald_args(mod: ModificationSpec) -> tuple:
    """(coupling, ancilla, n, click) of a herald, as the prefix, the channel and the reads take them: the one table
    of the four heralds.

    A beam-splitter addition mixes in Fock m and heralds vacuum, an SPDC addition squeezes with vacuum and heralds
    m, a subtraction mixes in vacuum and heralds m photons, or a click (the complement of vacuum).
    """
    if mod.op == "add":
        bs = mod.mechanism == "bs"
        return (("BS", mod.T), mod.m, 0, False) if bs else (("SPDC", mod.r, mod.theta), 0, mod.m, False)
    click = mod.m == "click"
    return ("BS", mod.T), 0, 0 if click else mod.m, click


def _gaussian_step(m: ModificationSpec, modes: int) -> sym.SymplecticTransform:
    """The transform of a squeeze or displacement modification."""
    make = sym.make_squeezer(m.r, m.theta) if m.op == "squeeze" else sym.make_displacement(m.alpha, m.theta)
    return sym.embed(make, [m.mode], modes)


class _Prefix:
    """The phase-independent record of a pipeline: the inputs and input-stage modifications, heralds included.
    Each part is built on its first read and kept with the record, which the points of a sweep over anything
    after the MZI share, L and D included: the uniform loss is the first map after the MZI (`_after_mzi`).

    Every input stage is one image of the inputs' expressions (a Gaussian input is its one `wig.from_gaussian`
    term) and one Fock ancilla per herald (`_ancillas`) through one channel, the modifications in order (`_then`),
    built through the heralds' projectors (`wig.AffineImage.state`).  Its record is `arms`, (p, arms).
    """

    def __init__(self, inputs: tuple, input_mods: tuple):
        self.inputs, self.input_mods = inputs, input_mods
        self._jets, self._columns = {}, {}  # (ancillas, arm, order) -> W^(order), (W, ..., W^(order)) as columns

    @cached_property
    def arms(self) -> tuple:
        """(p, arms): the success probability, and the success arm then, where it is tracked, the failure arm, of
        weight 1 - p.

        The success arm reads the product of the heralds' projectors (`_herald_reads`) and raises
        ImprobableBranch when its probability is below the renormalization floor.  A single herald also tracks its
        failure arm, the projector pair's other read, which is left untracked below the floor, so a herald
        that succeeds almost surely is kept.  Each arm is normalized by its own norm, and its probability is that
        norm over the unheralded read's: the products the reads share are integrated once.  A grid of T gives p at
        every point, the success arm at the points above the floor, and the failure arm if it is above at all.
        """
        (first, second), input_mods = self.inputs, self.input_mods
        joint = _with_ancillas(wig.tensor_exprs(first.expr(), second.expr()), _ancillas(input_mods))
        n = joint.nvars
        image = wig.AffineImage(joint, *_then(input_mods, n, np.eye(n), np.zeros(n), np.zeros((n, n))))
        unheralded = image.state((1, 2)) if input_mods else joint
        if not any(m.heralded for m in input_mods):
            return 1.0, (unheralded.normalize(),)
        reads = [image.state((1, 2), herald) for herald in _herald_reads(input_mods)]
        ok, p = wig._herald_branch(reads[0], reads[0].norm / unheralded.norm)
        fail = [w for w in reads[1:] if np.all(w.norm / unheralded.norm >= wig.IMPROBABLE_FLOOR)]
        return p, (ok, *(w.normalize() for w in fail))

    @cached_property
    def gaussian(self) -> wig.Term | None:
        """The record's term if it is one arm of one term of constant polynomial: a Gaussian, R0 and sigma0 its
        `mean` and `quad`."""
        arm, *others = self.arms[1]
        return None if others or len(arm.terms) != 1 or any(map(any, arm.terms[0].poly)) else arm.terms[0]

    def jet(self, ancillas: tuple, arm: int, order: int = 0) -> wig.WignerExpr:
        """W^(order) of one tracked arm (0 the success arm, 1 the failure arm) followed by the output heralds'
        `ancillas` (Fock numbers).  M'(phi) = M(phi) M'(0) makes each phi-derivative of an arm seen through the
        channel a fixed expression (`wig.phase_tangent`)."""
        key = ancillas, arm, order
        if key not in self._jets:
            if order:
                h = np.zeros((4 + 2 * len(ancillas),) * 2)  # M'(0), and 0 on the ancillas: A'(phi) = A(phi) h
                h[:4, :4] = sym.mzi_phase_derivative(0.0)
                self._jets[key] = wig.phase_tangent(self.jet(ancillas, arm, order - 1), h)
            else:
                self._jets[key] = _with_ancillas(self.arms[1][arm], ancillas)
        return self._jets[key]

    def columns(self, ancillas: tuple, arm: int, order: int) -> list:
        """(W, ..., W^(order)) of one arm as the coefficient columns `wig.kernel_densities` reads."""
        key = ancillas, arm, order
        if key not in self._columns:
            self._columns[key] = wig.kernel_columns(tuple(self.jet(ancillas, arm, k) for k in range(order + 1)))
        return self._columns[key]

    @cached_property
    def moments(self) -> list:
        """Nine moments of the success arm from one Wick pass per term: <x_1^2>, <p_1^2>, <x_2^2>, <p_2^2>, then
        <x_1 x_2>, <p_1 p_2> and <x_1^2 x_2^2>, <x_1 p_1 x_2 p_2>, <p_1^2 p_2^2>."""
        return wig.moments(self.jet((), 0), [{i: 2} for i in range(4)] + [
            {0: 1, 2: 1}, {1: 1, 3: 1}, {0: 2, 2: 2}, (1, 1, 1, 1), {1: 2, 3: 2}])

    @cached_property
    def qfi(self) -> float:
        """A bound on the QFI of the MZI family of the prefix, the same at every phi.

        The channel after the MZI can only lower it, so it bounds the information of every detector of a config
        at every phi.  A Gaussian record (`gaussian`) takes the QFI of its lossless MZI family, to which 4 Var(J_z)
        is loose on a mixed input; any other the success arm's Var(n1 - n2) after the first 50/50 splitter,
        4 Var(J_z) >= QFI.  There n1 - n2 = x1 x2 + p1 p2 in the input modes, whose square has the symbol
        (x1 x2 + p1 p2)^2 - 1/2: one read of the arm's `moments`.
        """
        term = self.gaussian
        if term is None:
            m = self.moments
            return meas.MeasurementMoments(m[4] + m[5], m[6] + 2.0 * m[7] + m[8] - 0.5).variance
        g = sym.mzi_phase_derivative(0.0)
        half = g @ term.quad
        return est.qfi_mixed_gaussian(ga.GaussianState(term.mean, term.quad), g @ term.mean, half + half.T)[0]

    @cached_property
    def mean_photon(self) -> float:
        """Total mean photon number entering the interferometer, which the passive MZI keeps, from the success arm's
        `moments` (<n_k> = (<x_k^2> + <p_k^2> - 1) / 2): the lossless input's at every L."""
        xx = self.moments  # <x_1^2>, <p_1^2>, <x_2^2>, <p_2^2> first
        return float(sum(0.5 * (xx[i] + xx[i + 1]) - 0.5 for i in (0, 2)))


_prefix = lru_cache(maxsize=PREFIX_CACHE_SIZE)(_Prefix)


def _with_ancillas(expr: wig.WignerExpr, ancillas: tuple) -> wig.WignerExpr:
    """`expr` and one more mode per entry of `ancillas`, in its Fock state."""
    for m in ancillas:
        expr = wig.tensor_exprs(expr, wig.fock_wigner(m))
    return expr


def _after_mzi(modifications: tuple, noise: NoiseSpec, n: int) -> tuple:
    """(K, b, C): the maps after the MZI as one channel X = K Z + b + xi, xi ~ N(0, C), on its output Z.

    Z holds n variables: the two interferometer modes and one ancilla mode per herald after the phase, on which
    the MZI acts as the identity.  The uniform loss L of the config comes first on every path, the one place it
    is applied: it acts alike on both modes, so it commutes with the passive MZI, and K = sqrt(1 - L) I and
    C = (L / 2) I.  Thermal injection on a mode scales it by sqrt(eta) and adds noise of variable covariance
    (1 - eta)(2 nbar + 1)/2 there; the output stage follows (`_then`).
    """
    channel = np.eye(n), np.zeros(n), np.zeros((n, n))
    if noise.loss is not None:
        channel = _attenuated(channel, slice(0, 4), math.sqrt(1.0 - noise.loss.total), noise.loss.total / 2.0)
    for m in noise.thermal_modes if noise.has_thermal else ():
        channel = _attenuated(channel, slice(2 * m - 2, 2 * m), math.sqrt(noise.thermal_eta),
                              (1.0 - noise.thermal_eta) * (2.0 * noise.thermal_nbar + 1.0) / 2.0)
    return _then([m for m in modifications if m.stage == "output"], n, *channel)


def _attenuated(channel: tuple, rows: slice, gain: float, noise: float) -> tuple:
    """The channel (K, b, C) followed by X -> gain X + xi on the variables `rows`, xi of variance `noise` each."""
    k, b, c = channel
    g = np.ones(len(b))
    g[rows] = gain
    c = g[:, None] * c * g
    c[rows, rows] += noise * np.eye(len(g[rows]))
    return g[:, None] * k, g * b, c


def _then(mods, n: int, k: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """The channel (K, b, C) on n variables followed by each of `mods`: F, s of a squeeze or displacement maps it
    to (F K, F b + s, F C F^T), and so does a herald's coupling of its ancilla (mode 3, 4, ... in order; input 1)
    with its mode (input 2), a stack of beam splitters for a tuple of T, whose grid axis leads from then on."""
    ancilla = 2
    for m in mods:
        if m.heralded:
            ancilla += 1
            kind, x, *theta = _herald_args(m)[0]
            part = sym.beam_splitter_matrix(x) if kind == "BS" else sym.make_two_mode_squeezer(x, *theta).matrix
            rows = [2 * ancilla - 2, 2 * ancilla - 1, 2 * m.mode - 2, 2 * m.mode - 1]
            f, s = np.broadcast_to(np.eye(n), part.shape[:-2] + (n, n)).copy(), 0.0
            f[(..., *np.ix_(rows, rows))] = part
        else:
            step = _gaussian_step(m, n // 2)
            f, s = step.matrix, step.shift
        k, b, c = f @ k, wig._mv(f, b) + s, f @ c @ np.swapaxes(f, -1, -2)
    return k, b, c


def _through_mzi(k: np.ndarray, phi, derivative: bool = False) -> np.ndarray:
    """A(phi) = K (M(phi) + I), K the channel after the MZI and I on the ancillas, or A'(phi) = K (M'(phi) + 0)
    with `derivative`, at one phase or a stack of phases; K may lead with a grid axis instead, or be cut to rows."""
    head = k[..., :4] @ (sym.mzi_phase_derivative if derivative else sym.mzi_matrix)(phi)
    a = np.empty(head.shape[:-1] + k.shape[-1:])
    a[..., :4], a[..., 4:] = head, 0.0 if derivative else k[..., 4:]
    return a


class _Route:
    """How the detectors of one pipeline (inputs, modifications, noise) see its state at every phase, decided
    once: its prefix record (`_prefix`), the channel after the MZI (`_after_mzi`), (K, b, C), the uniform loss
    first, the arms they read and each detector's optimum (`optima`).  The path is read off the record
    (`gaussian`), and a Gaussian term has one image, its trigonometric form (`trig`, `image`).  A herald after the
    phase adds its ancilla to the prefix (`ancillas`) and its coupling to the channel.  An arm is (prefix arm,
    herald): the prefix arms, unheralded (None), or the output heralds' reads (`_herald_reads`), their product and,
    for a single herald with none ahead of the phase, its complement.
    """

    def __init__(self, inputs: tuple, modifications: tuple, noise: NoiseSpec):
        self.prefix = _prefix(inputs, tuple(m for m in modifications if m.stage == "input"))
        heralds = tuple(m for m in modifications if m.heralded and m.stage == "output")
        self.ancillas = _ancillas(heralds)
        self.channel = _after_mzi(modifications, noise, 4 + 2 * len(heralds))
        reads = _herald_reads(heralds)[: 1 if any(m.heralded for m in self.prefix.input_mods) else None]
        self.arms = tuple((0, herald) for herald in reads) if heralds else ((0, None), (1, None))
        self.optima = {}  # detector -> (phi, variance, signal) of its phase-variance optimum (`_optimal_phi`)
        self._samples = {}  # sample set of phases -> the Gaussian image there, validated
        self._observation = {}  # the last phase observed -> its (p, arms)
        self._phases, self._parts = None, {}  # the last phase set read, and a read's key -> {projectors: its part}

    @cached_property
    def gaussian(self) -> wig.Term | None:
        """The prefix's Gaussian term (`_Prefix.gaussian`), which the closed-form reads take, if no herald follows."""
        return None if self.ancillas else self.prefix.gaussian

    @cached_property
    def trig(self) -> tuple:
        """(b, m_c, m_s) and symmetric (S0, S1, S2): through A(0) and 2 A'(0) (`_through_mzi`), the Gaussian term has
        mean b + m_c cos(phi/2) + m_s sin(phi/2) and covariance S0 + S1 cos phi + S2 sin phi, 2C in S0."""
        (k, b, c), term = self.channel, self.gaussian
        a_c, a_s = _through_mzi(k, 0.0), 2.0 * _through_mzi(k, 0.0, derivative=True)
        s_cc, s_cs, s_ss = a_c @ term.quad @ a_c.T, a_c @ term.quad @ a_s.T, a_s @ term.quad @ a_s.T
        parts = np.array([(s_cc + s_ss) / 2.0 + 2.0 * c, (s_cc - s_ss) / 2.0, s_cs])
        return np.array([b, a_c @ term.mean, a_s @ term.mean]), (parts + np.swapaxes(parts, 1, 2)) / 2.0

    def image(self, phis, order: int = 0, rows: slice = slice(None)) -> tuple:
        """((mean, cov), ...) of the Gaussian term (`trig`) at each of `phis` on the variables `rows`, unvalidated, and
        their exact phi-derivatives up to `order` <= 2: A'' = -A/4 gives mu'' = -(mu - b)/4 and sigma'' = S0 - sigma."""
        # a mode's rows are a strided block of each S, which slows every broadcast below: they are copied first
        (b, m_c, m_s), (s_0, s_1, s_2) = self.trig[0][:, rows], self.trig[1][:, rows, rows].copy()
        phis = np.asarray(phis)[:, None]
        ch, sh, cf, sf = np.cos(phis / 2.0), np.sin(phis / 2.0), np.cos(phis)[..., None], np.sin(phis)[..., None]
        mu, sigma = b + m_c * ch + m_s * sh, s_0 + s_1 * cf + s_2 * sf
        tangent = ((m_s * ch - m_c * sh) / 2.0, s_2 * cf - s_1 * sf) if order else None
        return ((mu, sigma), tangent, ((b - mu) / 4.0, s_0 - sigma) if order > 1 else None)[: order + 1]

    def samples(self, phis: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The `image` at a sample set of phases, its covariances validated once as a stack, kept per set."""
        if phis not in self._samples:
            ((mean, cov),) = self.image(phis)
            ga.check_covariance(cov)
            self._samples[phis] = mean, cov
        return self._samples[phis]

    def observe(self, phi: float) -> tuple:
        """(p, arms) as the detectors see them at phi, kept for the last phi, which a point's metrics share.  The
        prefix's arms go through X = A(phi) Y + b + xi (`_through_mzi`): a Gaussian route's arm is the GaussianState
        of its `image`, and a Wigner arm (`arms`) its herald's probability at phi (`read`), 1.0 with no herald, which
        p takes in.  Below the renormalization floor a success arm raises ImprobableBranch and a failure arm is
        untracked, as at the input stage."""
        if phi not in self._observation:
            self._observation = {phi: self._observe(phi)}
        return self._observation[phi]

    def _observe(self, phi: float) -> tuple:
        p, arms = self.prefix.arms
        if self.gaussian is not None:
            ((mean, cov),) = self.image((phi,))
            return p, (ga.GaussianState(mean[0], cov[0]),)
        ok, *fail = (float(self.read(i, 0, herald)(np.array([phi]))[0][0, 0]) if herald else 1.0
                     for i, herald in self.arms if i < len(arms))
        if ok < wig.IMPROBABLE_FLOOR:
            raise ImprobableBranch(ok)
        return p * min(ok, 1.0), (ok, *(q for q in fail if q >= wig.IMPROBABLE_FLOOR))

    def read(self, index: int, order: int, herald: tuple | None, rows: list | None = None) -> Callable:
        """(phis, kernel, blur, monomials) -> `wig.herald_read` through `herald` (None: unheralded) of prefix arm
        `index` and its phase tangents up to `order`: the one read of a Wigner arm at a phase.

        The channel is A(phi) (`_through_mzi`), and the tangents (`_Prefix.jet`) give each read's phi-derivatives
        exactly.  `rows` cuts the channel to those variables first (an unheralded kernel read needs its mode's alone).
        Each signed projector product is integrated once per route and set of phases: the route keeps its part, by
        arm, order, cut, kernel, blur and monomials, for every later read at the last phases read, so an arm and
        its complement share it, and no more parts are kept over a phase grid.
        """
        k, b, c = self.channel
        if rows is not None:
            k, b, c = k[rows], b[rows], c[rows][:, rows]
        columns, herald = self.prefix.columns(self.ancillas, index, order), herald or wig.UNHERALDED
        cut = None if rows is None else tuple(rows)

        def read(phi: np.ndarray, kernel: list | None = (), blur: np.ndarray | None = None,
                 monomials: list | None = None):
            phases = _bytes(phi)
            if phases != self._phases:
                self._phases, self._parts = phases, {}
            key = (index, order, cut, None if kernel is None else tuple(kernel), _bytes(blur),
                   None if monomials is None else tuple(wig._exponents(e, len(b)) for e in monomials))
            return wig.herald_read(columns, _through_mzi(k, phi), b, c, herald, self._parts.setdefault(key, {}),
                                   kernel, blur, monomials)

        return read

    def detected(self, phi: float, mode: int) -> wig.WignerExpr:
        """The state of one mode of the success arm at phi, of norm the probability of the herald after the phase:
        the prefix's arm built through the channel (`wig.AffineImage.state`), a grid state for a grid of T."""
        k, b, c = self.channel
        image = wig.AffineImage(self.prefix.jet(self.ancillas, 0), _through_mzi(k, phi), b, c)
        return image.state((mode,), self.arms[0][1] or wig.UNHERALDED)


_routes = lru_cache(maxsize=1)(_Route)  # the last pipeline's route, with its most recent observation and its reads


def _route(config: ScenarioConfig) -> _Route:
    return _routes(config.inputs, config.modifications, config.noise)


def _bytes(a: np.ndarray | None) -> tuple | None:
    """An array's exact key, its dtype, shape and bytes (None for None)."""
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


# ---------------------------------------------------------------------------
# Metric evaluation.
# ---------------------------------------------------------------------------


class _Signal(NamedTuple):
    """The phase signal of a detector: V = Var / <O>'^2 over an array of phases.

    `variance` is inf where the slope (at a dark fringe, the curvature) is
    not above `floor`, its rounding level in phi.
    """

    variance: Callable[[np.ndarray], np.ndarray]
    floor: float

    def at(self, phi: float) -> float:
        """V at one phase; raises SignalStationary where it is not finite."""
        v = float(self.variance(np.array([phi]))[0])
        if not math.isfinite(v):
            raise SignalStationary(f"signal slope below {self.floor:.0e} at phi={phi:.6g}")
        return v


def _optimal_phi(config: ScenarioConfig, scheme: meas.DetectionScheme) -> tuple[float, float, _Signal]:
    """The phase-variance minimum over one period of V in phi, as (phi, variance), and the signal it is read from,
    kept on the route (`_Route.optima`): neither depends on the config's phase, so a sweep searches once.

    The prefix channel A(phi) (`_through_mzi`) holds only cos(phi/2) and sin(phi/2), and M(phi + 2 pi) = -M(phi).
    V has period 2 pi for homodyne and for an even detector (every other one) with no output displacement; an
    output displacement b breaks that symmetry for an even detector, and V is searched over [0, 4 pi) instead.

    A polynomial detector with no herald after the phase is a trigonometric polynomial in phi: <O> of a degree-q
    detector has harmonics up to q in phi/2 and <O^2> up to 2q.  An even detector with no output displacement has
    even harmonics only, and is read in phi itself.  Its samples at 4d + 1 equispaced phases (five, or nine for an
    even detector behind an output displacement; a Gaussian route's image, or a Wigner arm's monomials, read at
    all of them at once) fix both moments, and `est.trig_signal` gives V at every phi and at every stationary
    point exactly.  Parity and click, and every detector after an output herald, where <O> = p<O> / p is no
    trigonometric polynomial, read the batched jet of <O> and Var (`_signal_jet`), through
    `est.jet_phase_variance` at any phi and `_kernel_optimum` for the minimum.  The fixed-phase variance, the drift
    trials and the optimum of a detector all read this one signal.

    Minima within a relative OPTIMUM_TIE of the lowest are equal, and the one at the smallest phi is reported, so
    that rounding cannot move the optimum between mirror minima.  Raises SignalStationary when no phase gives a
    finite variance.
    """
    route = _route(config)
    if scheme in route.optima:
        return route.optima[scheme]
    shifted = bool(np.any(route.channel[1]))
    if scheme.kind in meas.POLYNOMIAL_KINDS and not route.ancillas:
        even = scheme.kind != "homodyne"
        rate = 2 if shifted or not even else 1
        n = 9 if even and shifted else 5
        phis = tuple(2.0 * math.pi * rate * j / n for j in range(n))
        if route.gaussian is not None:
            o = meas.gaussian_moments(scheme, *route.samples(phis))
        else:  # the success arm's monomials at every phase in one read
            read = route.read(0, 0, None)
            o = meas.polynomial_moments(scheme, lambda e: read(np.array(phis), monomials=e)[0][:, 0])
        samples = [meas.MeasurementMoments(float(m), float(s)) for m, s in zip(o.mean, o.second_moment)]
        variance, floor, points = est.trig_signal(samples, rate)
        optimum = *_least(points), _Signal(variance, floor)
    else:
        jet = _signal_jet(config, scheme)
        # |<O>| <= 1, so the slope floor of jet_phase_variance is SLOPE_FLOOR
        signal = _Signal(lambda phi: est.jet_phase_variance(*jet(phi)), est.SLOPE_FLOOR)
        optimum = *_kernel_optimum(config, jet, 4.0 * math.pi if shifted else 2.0 * math.pi), signal
    route.optima[scheme] = optimum
    return optimum


def _least(minima: list) -> tuple[float, float]:
    """The lowest of (phi, variance) pairs, the smallest phi of those within OPTIMUM_TIE of it."""
    low = min((v for _, v in minima), default=math.inf)
    if not math.isfinite(low):
        raise SignalStationary("no searched phase gives a finite phase variance")
    return min((x, v) for x, v in minima if v - low <= OPTIMUM_TIE * abs(low))


def _variance(m, m1, m2, s, s1, s2) -> tuple:
    """Var = <O^2> - <O>^2 and its first two phi-derivatives, from the jets of <O> and <O^2>."""
    return s - m * m, s1 - 2.0 * m * m1, s2 - 2.0 * (m1 * m1 + m * m2)


def _ratio(u, p, size) -> tuple:
    """The jet of u / p to first or second order from those (value, derivatives) of u and p, by the quotient rule.

    With curvatures, it is NaN (unresolved) where p < HERALD_RESOLUTION |p''| + size / HERALD_CANCELLATION,
    with `size` the magnitude of p's read: there the quotient's derivatives lose their digits to p's rounding.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 at a herald zero
        m = u[0] / p[0]
        m1 = (u[1] - m * p[1]) / p[0]
        if len(u) == 2:
            return m, m1
        floor = HERALD_RESOLUTION * np.abs(p[2]) + size / HERALD_CANCELLATION
        resolved = p[0] >= np.maximum(wig.IMPROBABLE_FLOOR, floor)
        return tuple(np.where(resolved, r, math.nan) for r in (m, m1, (u[2] - 2.0 * m1 * p[1] - m * p[2]) / p[0]))


def _kernel_jet(config: ScenarioConfig, scheme: meas.DetectionScheme, arm: int = 0, order: int = 2) -> Callable:
    """The batched jet of parity or click on one arm (`_Route.arms`) of the prefix channel.

    The jet maps an array of phases to <O> and its phi-derivatives up to
    `order` and the rounding level of Var there, with O the no-click
    indicator for click: V is the same for both outcomes of a Bernoulli
    signal, and the no-click probability keeps its precision at the bright
    port, where the click probability rounds to 1.

    On a Gaussian state the detected mode's mean and covariance and their exact derivatives are the route's one
    image (`_Route.image`) on its rows, and the kernel is the parity, or half the no-click probability with
    sigma + I in place of sigma (`meas.kernel_jet`).  On a Wigner state the parity is pi W(0) of the mode, the no-click
    probability 2 pi times its density at 0 blurred by I/2, and their derivatives those of the arm's phase tangents
    (`_Route.read`); after an output herald, <O> = p<O> / p with p the read of the herald's projectors (`_ratio`).
    """
    route = _route(config)
    scale = 1.0 if scheme.kind == "parity" else 2.0
    if route.gaussian is None:
        index, herald = route.arms[arm]
        mode = [2 * scheme.mode - 2, 2 * scheme.mode - 1]
        blur = np.zeros((2, 2)) if scheme.kind == "parity" else 0.5 * np.eye(2)
        # an unheralded read needs the detected mode's rows alone
        read = route.read(index, order, herald, None if herald else mode)
        mode = mode if herald else None

        def wigner_jet(phi: np.ndarray) -> tuple:
            densities, size = read(phi, mode, blur)
            if herald is None:
                return (*(math.pi * scale * densities), est.SLOPE_NOISE * math.pi * scale * size)
            p, p_size = read(phi)
            with np.errstate(divide="ignore"):
                noise = est.SLOPE_NOISE * (math.pi * scale * size + p_size) / p[0]
            return *_ratio(math.pi * scale * densities, p, p_size), noise

        return wigner_jet
    rows, kernel = slice(2 * scheme.mode - 2, 2 * scheme.mode), np.eye(2) if scheme.kind == "click" else 0.0
    s_0, s_1, s_2 = route.trig[1][:, rows, rows]
    terms = float(np.sum(np.abs(s_0 + kernel) + np.abs(s_1) + np.abs(s_2)))

    def jet(phi: np.ndarray) -> tuple:
        (mu, sigma), (dmu, dsigma), (d2mu, d2sigma) = route.image(phi, 2, rows)
        sigma = sigma + kernel
        value, slope, curve = meas.kernel_jet(mu, sigma, dmu, dsigma, d2mu, d2sigma)
        # sigma carries the rounding of its terms, which log det sigma amplifies by |sigma^-1|, relative to
        # <O>: a no-click probability that is small but resolved is no dark fringe
        det = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 0, 1] * sigma[:, 1, 0]
        noise = est.SLOPE_NOISE * terms * np.abs(sigma).sum(axis=(1, 2)) / np.abs(det)
        return scale * value, scale * slope, scale * curve, noise * np.abs(scale * value)

    return jet


def _signal_jet(config: ScenarioConfig, scheme: meas.DetectionScheme) -> Callable:
    """phis -> (<O>, <O>', <O>'', Var, Var', Var'', the rounding level of Var) on the success arm, a (7, n) stack.

    Parity and click read `_kernel_jet`, with <O^2> = 1 for parity and <O> for the no-click indicator.  A
    polynomial detector after an output herald reads its monomials through the herald over the herald's read
    (`_ratio`); its moment formulas (`meas.polynomial_moments`) are affine in them, so they map the value row to
    <O> and <O^2>, and a derivative row to its derivative once their constants are taken off.
    """
    if scheme.kind not in meas.POLYNOMIAL_KINDS:
        jet = _kernel_jet(config, scheme)

        def kernel_signal(phi: np.ndarray) -> tuple:
            m, m1, m2, noise = jet(phi)
            square = (m, m1, m2) if scheme.kind == "click" else (1.0, 0.0, 0.0)  # <O^2> of no-click, or parity
            return m, m1, m2, *_variance(m, m1, m2, *square), noise

        return kernel_signal
    route = _route(config)
    read = route.read(0, 2, route.arms[0][1])
    constants = meas.polynomial_moments(scheme, lambda monomials: [0.0] * len(monomials))

    def polynomial_signal(phi: np.ndarray) -> tuple:
        size = []

        def moments(monomials: list) -> list:
            reads, magnitudes = read(phi, monomials=[{}] + monomials)  # (monomial, W^(k), phase): p first
            size.append(magnitudes[0] / np.abs(reads[0, 0]))
            return [np.array(_ratio(r, reads[0], magnitudes[0])) for r in reads[1:]]

        o = meas.polynomial_moments(scheme, moments)
        offset = np.array([0.0, 1.0, 1.0])[:, None]
        mean, second = o.mean - offset * constants.mean, o.second_moment - offset * constants.second_moment
        noise = est.SLOPE_NOISE * np.maximum(1.0, np.abs(second[0])) * size[0]
        return (*mean, *_variance(*mean, *second), noise)

    return polynomial_signal


def _kernel_optimum(config: ScenarioConfig, jet: Callable, period: float) -> tuple[float, float]:
    """The phase-variance minimum of a jet signal (`_signal_jet`), from one batched grid of its jet.

    The grid has cells of width 1 / sqrt(F), with F = `_Prefix.qfi`: it bounds
    the Fisher information Var^-1 <O>'^2 of every detector at every phi, so a
    cell is the width of the narrowest fringe.  The fringe angle
    theta = arccos <O> (parity), or arccos(1 - 2P) (click), turns by at most
    one radian across it, since theta'^2 = <O>'^2 / Var <= F.  `est.kernel_minima` refines the stationary
    points on that grid, a window of phases per bracket in each batched jet call, and reads V from the jet at
    the phase it reports; the least of them (by the OPTIMUM_TIE rule) is reported.
    """
    cells = 4 * max(math.ceil(period * math.sqrt(_route(config).prefix.qfi) / 4.0), 1)
    return _least(est.kernel_minima(jet, period, cells))


def _click_cfi(config: ScenarioConfig, phi: float) -> float:
    """Total click-detection CFI over both output modes and both herald arms.

    Each arm (`_Route.arms`) adds, weighted by its probability, both detectors' CFIs (`est.binary_cfi`, where an
    outcome of probability 0 adds 0).  Each reads the arm's no-click probability and its exact slope, resolved
    at a bright port, from its jet (`_kernel_jet`), and the curvature that gives a dark outcome's limit 2 P''
    where an outcome's probability is within rounding of 0: a click probability, formed as 1 - P0, or a Wigner
    no-click probability, a sum of terms.  A herald after the phase adds the herald term P+'^2 / (P+ (1 - P+)),
    from the exact jet of its less probable outcome; an arm untracked at phi (below the renormalization floor)
    adds nothing.
    """
    route = _route(config)
    p, arms = route.observe(phi)
    total = 0.0
    for arm, weight in enumerate((p, 1.0 - p)[: len(arms)]):
        part = 0.0
        for mode in (1, 2):
            scheme = meas.DetectionScheme("click", mode)
            p0, dp0 = (float(v[0]) for v in _kernel_jet(config, scheme, arm, order=1)(np.array([phi]))[:2])
            # an outcome whose probability rounds to the level of its absolute error may be a dark one, whose
            # limit needs the curvature; a Gaussian no-click probability keeps its relative precision
            dark = 1.0 - p0 <= est.SLOPE_FLOOR or (p0 <= est.SLOPE_FLOOR and route.gaussian is None)
            d2p0 = float(_kernel_jet(config, scheme, arm)(np.array([phi]))[2][0]) if dark else None
            part += est.binary_cfi(p0, dp0, phi, d2p0)
        total += weight * part
    if route.arms[0][1] is None:
        return total
    # the herald's less probable outcome keeps its relative precision: cfi allows a single herald, so both are read
    p, dp = min((route.read(0, 1, herald)(np.array([phi]))[0][:, 0] for _, herald in route.arms),
                key=lambda jet: jet[0])
    return total + (est.binary_cfi(float(p), float(dp), phi) if dp else 0.0)


def _qfi(config: ScenarioConfig, phi: float) -> tuple[float | None, str]:
    """QFI of the phi-family, by the route the state's purity allows.

    A herald after the phase post-selects on a phi-dependent outcome; the QFI of that conditional state does not
    bound the herald-weighted CFI, so none is given.  A Gaussian route takes one observation: `est.qfi_mixed_gaussian`
    on the state and its exact tangent, the route's image to first order (`_Route.image`), labelled pure or mixed
    from the symplectic eigenvalues that formula uses.  On the Wigner path, a channel of K = 0 on the interferometer
    modes (a total loss, L = 1 or D = 0) leaves a family that does not depend on phi, of QFI 0.  With no noise
    after the MZI (C = 0, which thermal injection at eta = 1 keeps), a pure prefix is a pure input to the MZI, whose
    phase is generated by J_z = (n1 - n2)/2 after its first 50/50 splitter: F = 4 Var(J_z) = Var(n1 - n2) there
    (`_Prefix.qfi`), the same at every phi.  The output squeezes and displacements are phi-independent unitaries
    and keep it.  Noise after the MZI, the uniform loss included, leaves a mixed non-Gaussian family, for which no
    QFI is given.
    """
    route = _route(config)
    if route.ancillas:
        return None, "unavailable (herald after the phase)"
    if route.gaussian is not None:
        qfi, pure = est.qfi_mixed_gaussian(route.observe(phi)[1][0], *(d[0] for d in route.image((phi,), 1)[1]))
        return qfi, "pure_gaussian" if pure else "mixed_gaussian"
    mixed = None, "unavailable (mixed non-Gaussian)"
    if not np.any(route.channel[0][:, :4]):
        return 0.0, "pure_wigner"
    if np.any(route.channel[2]):
        return mixed
    try:
        est.require_pure_wigner(route.prefix.arms[1][0])
    except PurityViolation:
        return mixed
    return route.prefix.qfi, "pure_wigner"


def evaluate_point(config: ScenarioConfig, phi: float | None = None):
    """Compute the requested metrics at one parameter point.

    A herald whose success probability sits below the renormalization floor
    (transmissivity pinned at 1, say) yields a flagged row rather than a
    failure.  A photon-number distribution runs to the n_max its contour's own
    tail bound sets (`wig.photon_number_distribution`).
    """
    phi = config.phi if phi is None else phi
    report = est.EstimationReport(phi=phi)
    warnings: list[str] = []
    distributions: list[dict] = []
    route = _route(config)
    try:
        p, (arm, *_) = route.observe(phi)
    except ImprobableBranch as exc:
        report.extras["flag"] = "improbable herald branch"
        warnings.append(f"phi={phi:.6g}: {exc}")
        return report, warnings, distributions
    if p < 1.0:
        report.extras["herald_probability"] = p

    ntot = route.prefix.mean_photon
    if ntot > 0.0:
        report.snl = est.snl(ntot)
        report.hl = est.hl(ntot)

    if "phase_variance" in config.metrics:
        for scheme in config.detection:
            try:
                opt_phi, opt_var, signal = _optimal_phi(config, scheme)
            except SignalStationary as exc:
                # no phase gives a finite variance, the configured one included: one warning for both
                warnings.append(f"optimal_phi[{scheme.label}]: {exc}")
                continue
            try:
                report.phase_variance[scheme.label] = signal.at(phi)
            except (SignalStationary, DegenerateBranch, ImprobableBranch) as exc:
                warnings.append(f"phase_variance[{scheme.label}] at phi={phi:.6g}: {exc}")
            report.optimal_phi[scheme.label] = opt_phi
            report.extras[f"min_phase_variance.{scheme.label}"] = opt_var

    if "cfi" in config.metrics:
        try:
            report.cfi = _click_cfi(config, phi)
        except (DegenerateBranch, ImprobableBranch) as exc:
            warnings.append(f"cfi at phi={phi:.6g}: {exc}")

    if "qfi" in config.metrics:
        qfi, label = _qfi(config, phi)
        if qfi is None:
            warnings.append(f"qfi: {label}")
        else:
            report.extras["qfi_route"] = label
            if qfi > est.SLOPE_FLOOR**2:
                report.qfi, report.qcrb = qfi, 1.0 / qfi
            else:
                report.qfi = 0.0
                warnings.append(f"qfi at phi={phi:.6g}: {qfi:.3e}, no phase information and no QCRB")

    if "snr" in config.metrics:
        added = {k: sum(int(m.m) for m in config.modifications if m.op == "add" and m.mode == k) for k in (1, 2)}
        if route.gaussian is None:  # a Wigner arm's two modes from one read, over its herald's probability
            monomials = meas._intensity_monomials(1) + meas._intensity_monomials(2)
            reads = route.read(0, 0, route.arms[0][1])(np.array([phi]), monomials=monomials)[0]
            both = (reads[:, 0, 0] / arm).tolist()
        for mode in (1, 2):
            mom = meas.intensity(arm, mode) if route.gaussian is not None else meas.polynomial_moments(
                meas.DetectionScheme("intensity", mode), lambda _: both[5 * mode - 5 : 5 * mode])
            try:
                report.snr[f"mode{mode}"] = est.snr(mom, subtract_injected=added[mode])
            except DegenerateBranch as exc:
                warnings.append(f"snr mode {mode}: {exc}")

    if "distributions" in config.metrics:
        for mode in (1, 2):
            dist = wig.photon_number_distribution(route.detected(phi, mode))
            for n, p in enumerate(dist.probs):
                distributions.append({"mode": mode, "n": n, "p": float(p)})
            report.extras[f"distribution_tail.mode{mode}"] = dist.tail

    return report, warnings, distributions


# ---------------------------------------------------------------------------
# Reports and emission.
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    config: dict
    rows: list
    parameter: str | None = None
    grid: list | None = None
    seed: int | None = None
    warnings: list = field(default_factory=list)
    distributions: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    version: str = __version__

    def as_dict(self) -> dict:
        out = {
            "config": self.config,
            "parameter": self.parameter,
            "grid": self.grid,
            "rows": self.rows,
            "seed": self.seed,
            "warnings": self.warnings,
            "version": self.version,
        }
        if self.distributions:
            out["distributions"] = self.distributions
        if self.traces:
            out["traces"] = self.traces
        return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit(report: RunReport, out_dir: str, formats: str = "both") -> list[str]:
    """Write report files; identical report objects produce byte-identical files."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if formats in ("json", "both"):
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(path)
    if formats in ("csv", "both"):
        tables = [("results.csv", list(dict.fromkeys(k for row in report.rows for k in row)), report.rows)]
        if report.distributions:
            tables.append(("distributions.csv", ["grid_index", "mode", "n", "p"], report.distributions))
        if report.traces:
            tables.append(("traces.csv", list(report.traces[0]), report.traces))
        for name, cols, rows in tables:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Top-level operations.
# ---------------------------------------------------------------------------


def run(config: ScenarioConfig, seed: int | None = None) -> RunReport:
    """Evaluate the configured metrics at the configured phase (or phase grid)."""
    if config.phi_grid is not None:
        return sweep(config, "phi", list(config.phi_grid), seed=seed)
    report, warnings, dists = evaluate_point(config)
    row = report.as_dict()
    row["index"] = 0
    for d in dists:
        d["grid_index"] = 0
    return RunReport(config=config.raw, rows=[row], seed=seed, warnings=warnings, distributions=dists)


def sweep(config: ScenarioConfig, parameter: str, grid, seed: int | None = None) -> RunReport:
    """Evaluate the metrics at each grid point, in grid order; a config's phi grid takes a sweep over phi alone."""
    if config.phi_grid is not None and parameter != "phi":
        raise ConfigError("interferometer.phi", f"a phi grid cannot be swept over {parameter}; give one phi")
    grid = [float(g) for g in grid]
    # every grid point is validated before any is evaluated
    points = [config.with_values(**{parameter: value}) for value in grid]
    rows, warnings, dists = [], [], []
    for idx, (value, point) in enumerate(zip(grid, points)):
        report, w, d = evaluate_point(point)
        row = report.as_dict()
        row["index"] = idx
        row[parameter] = value
        rows.append(row)
        warnings.extend(w)
        for item in d:
            item["grid_index"] = idx
        dists.extend(d)
    return RunReport(config=config.raw, rows=rows, parameter=parameter, grid=grid, seed=seed, warnings=warnings,
                     distributions=dists)


def phase_drift_study(
    config: ScenarioConfig,
    trials: int,
    seed: int,
    sigma: dict | None = None,
    distribution: str = "gaussian",
) -> RunReport:
    """Running average of the phase variance under a randomly drifting control phase.

    Each trial draws the control phase near the scheme's optimum (Gaussian with
    the per-scheme sigma, or uniformly within DRIFT_UNIFORM_WIDTH = 0.2 pi of it) and evaluates
    the phase variance there, all trials of a detector with an exact signal in
    one call; the trace reports the running mean versus trial count.  A draw whose variance is not finite (no
    slope above its rounding level) is left out of the mean and the trace, with a warning; the row counts such
    draws (`stationary_draws`), and a detector with no other draw gets a flag in place of its mean.
    """
    if trials < 1:
        raise ConfigError("drift.trials", "need at least one trial")
    sigma = dict(DRIFT_SIGMA_DEFAULTS, **(sigma or {}))
    traces = []
    warnings: list[str] = []
    rows = []
    for si, scheme in enumerate(config.detection):
        try:
            opt_phi, opt_var, signal = _optimal_phi(config, scheme)
        except SignalStationary as exc:
            warnings.append(f"drift[{scheme.label}]: {exc}")
            continue
        sig = sigma.get(scheme.kind, sigma["default"])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(si,)))
        phis = (rng.normal(opt_phi, sig, trials) if distribution == "gaussian"
                else opt_phi + DRIFT_UNIFORM_WIDTH * rng.uniform(-1.0, 1.0, trials))
        total, scored = 0.0, 0
        for k, (phi_k, v) in enumerate(zip(phis.tolist(), map(float, signal.variance(phis))), 1):
            if not math.isfinite(v):  # a flat draw carries no usable slope and no score
                warnings.append(f"drift[{scheme.label}] trial {k}: stationary draw at phi={phi_k:.6g}")
                continue
            total, scored = total + v, scored + 1
            traces.append({"scheme": scheme.label, "trial": k, "running_mean": total / scored})
        rows.append({"index": si, "scheme": scheme.label, "optimal_phi": opt_phi, "optimal_variance": opt_var,
                     "sigma": sig, "stationary_draws": trials - scored,
                     **({"final_running_mean": total / scored} if scored else {"flag": "every draw stationary"})})
    return RunReport(config=config.raw, rows=rows, seed=seed, warnings=warnings, traces=traces)


def _counted(config: ScenarioConfig, mod: ModificationSpec, grid: tuple) -> tuple:
    """(state, herald probability) of the counted mode (`_Route.detected`) at every T of the grid, through the
    route of the config whose herald `mod` takes the grid as its T, kept, normalized, at the points of probability
    at or above the renormalization floor.  An input herald's probability is the prefix record's p, whose success
    arm keeps those points already; an output herald's is the detected state's norm (`wig._herald_branch`)."""
    gridded = replace(mod, T=grid)
    route = _route(replace(config, modifications=tuple(gridded if m is mod else m for m in config.modifications)))
    state = route.detected(config.phi, mod.mode)
    if mod.stage == "input":
        return (state.normalize() if state.terms else state), route.prefix.arms[0]
    return wig._herald_branch(state, state.norm * np.ones(len(grid)))


def _sample_stats(histogram: np.ndarray, added: int) -> dict:
    """The sample mean of the kept photon numbers, given as the counts of n = 0, 1, ..., and, where two or more
    differ, its SNR over the sample standard deviation, (mean - added) / sqrt(sum h_n (n - mean)^2 / (kept - 1)).
    Both sums are exact or correctly rounded, so counts that end in more zeros give the same bits."""
    kept, ns = int(histogram.sum()), np.arange(len(histogram))
    mean = float(ns @ histogram) / kept
    squares = math.fsum(histogram * (ns - mean) ** 2)
    return {"sample_mean": mean, **({"sample_snr": (mean - added) / math.sqrt(squares / (kept - 1))}
                                    if kept > 1 and squares > 0.0 else {})}


def simulate_counts(config: ScenarioConfig, trials: int, seed: int, t_grid=None) -> RunReport:
    """Post-selected photon-counting experiment at fixed total trial budget.

    For each transmissivity grid point the herald keeps the M of `trials`
    uniform draws below P_success: M ~ Binomial(trials, P_success), monotone
    in P_success, and the same for P_success and the next float above it.  The
    histogram of M photon numbers is one multinomial draw from the heralded
    state's distribution on the same substream, reduced to a sample mean and
    sample SNR (`_sample_stats`), reported against the analytic values.  All
    schemes spend the same `trials` (equal experiment time); the substream for
    each grid point derives from (seed, index) so execution order cannot matter.

    The grid is validated once and read at once through the route, as one
    grid expression (`_counted`) whose intensity moments and distributions
    are one read each.  A success probability below the renormalization floor (T = 1 for a
    beam-splitter addition) gives a row flagged "improbable herald branch"
    with nothing kept, and a state of zero photon-number variance (a Fock
    state) a row without `theory_snr`; each adds a warning.
    """
    if trials < 1:
        raise ConfigError("counts.trials", "need at least one trial")
    if config.phi_grid is not None:
        raise ConfigError("interferometer.phi", "counts reads one phase; give one phi, not a grid")
    herald = [m for m in config.modifications if m.heralded]
    if len(herald) != 1:
        raise ConfigError("modifications", "simulate_counts needs exactly one add/subtract modification")
    mod = herald[0]
    if mod.op == "add" and mod.mechanism == "spdc":
        raise ConfigError("modifications", "simulate_counts sweeps the BS transmissivity; use the bs mechanism")
    path = f"modifications.{config.modifications.index(mod)}.T"
    grid = tuple(_number(float(t), path, lo=0.0, hi=1.0)
                 for t in (np.arange(0.05, 1.0, 0.05) if t_grid is None else t_grid))
    rows, warnings = [], []
    added = int(mod.m) if (mod.op == "add" and isinstance(mod.m, int)) else 0
    state, prob = _counted(config, mod, grid)
    at = np.cumsum(prob >= wig.IMPROBABLE_FLOOR) - 1  # each point's index on the state's grid
    # a grid of no probable point leaves no state to read
    theory, dist = meas.intensity(state, 1), wig.photon_number_distribution(state) if state.terms else None
    for idx, (T, p, j) in enumerate(zip(grid, prob, at)):
        if p < wig.IMPROBABLE_FLOOR:
            rows.append({"index": idx, "T": T, "kept": 0, "flag": "improbable herald branch"})
            warnings.append(f"T={T:g}: {ImprobableBranch(p)}")
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        kept = int(np.count_nonzero(rng.random(trials) < p))  # Binomial(trials, p), and monotone in p
        moments = meas.MeasurementMoments(theory.mean[j], theory.second_moment[j])
        row = {"index": idx, "T": T, "herald_probability": p, "kept": kept, "theory_mean": moments.mean}
        try:
            row["theory_snr"] = est.snr(moments, subtract_injected=added)
        except DegenerateBranch as exc:
            warnings.append(f"T={T:g}: theory_snr: {exc}")
        if kept == 0:
            row["flag"] = "no kept measurements"
            warnings.append(f"T={T:g}: herald kept zero of {trials} trials")
        else:
            row.update(_sample_stats(dist.histogram(rng, kept, j), added))
        rows.append(row)
    return RunReport(config=config.raw, rows=rows, parameter="T", grid=list(grid), seed=seed, warnings=warnings)
