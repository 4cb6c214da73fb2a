"""Configuration-driven MZI studies: run, sweep, phase drift, simulated counts.

A scenario is a single structured config (JSON, or a dotted key-tree) that
declares the two input states, ordered per-mode modifications at the input or
output stage, the interferometer phase, the noise model, the detector list,
and which metrics to compute.  Pipelines that stay Gaussian run on the
mean/covariance fast path; any Fock input or heralded addition/subtraction
switches to the full Wigner representation.  Both run through one pipeline
body, whose phase-independent prefix (inputs and input-stage modifications,
plus the uniform loss on the Wigner path, where it commutes with the passive
MZI) is built once and cached.

The detectors see the state by one of two routes (`_observer`):

- Prefix channel: with no herald after the phase, everything after the MZI
  (the MZI, the uniform loss on the Gaussian path, thermal injection, output
  squeezes and displacements) is one Gaussian channel X = A(phi) Y + b + xi on
  the cached prefix Y, with A = K M(phi).  A Gaussian prefix (R0, sigma0) maps
  to (A R0 + b, A sigma0 A^T + 2C), with C the covariance of xi.  A Wigner
  prefix stays as it is and only the observable moves,
  <O>_phi = Int W(Y) W_O(A Y + b + xi) dY: each phi is a `wigner.AffineImage`,
  read from the prefix's moment tensor (cached with it).  A detector's phase
  variance there comes from one exact phase signal (`_optimal_phi`), which
  gives its optimum and its value at any phi.
- Wigner forward: a herald after the phase makes the state depend on phi
  through the herald, so `build_pipeline` substitutes the MZI into every term
  per phi.

`simulate_counts` reads the herald's mode alone: the pipeline up to its
output stage with the other arm traced out, then that mode's output stage
(`_counted`).

Identical config plus seed gives byte-identical CSV/JSON output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from typing import Any, Callable, NamedTuple

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
# Searched phase-variance minima within this relative distance of the lowest are equal.
OPTIMUM_TIE = 1e-9
# Distinct phi-independent prefixes kept; a Wigner-path point with loss uses a
# lossy prefix and the lossless one it starts from (also read for the input photon number).
PREFIX_CACHE_SIZE = 8
# Largest squeeze parameter r of a squeeze or an SPDC addition, and of the
# summed r of the squeezes on one mode and stage.  The rounding
# defect of a squeezer matrix grows like eps cosh^2 r and passes the symplectic
# tolerance at some angle near r = 6.8 (at r = 6 its worst is 1.9e-11).
MAX_SQUEEZE_R = 6.0


# ---------------------------------------------------------------------------
# Config parsing and validation.
# ---------------------------------------------------------------------------


def _reject_unknown(d: dict, allowed: set, path: str) -> None:
    for k in d:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}" if path else k, f"unknown key (allowed: {sorted(allowed)})")


def _need(d: dict, key: str, path: str):
    if key not in d:
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
            if "gain" in d:
                g = _number(d["gain"], f"{path}.gain", lo=1.0, hi=math.cosh(MAX_SQUEEZE_R) ** 2)
                return ModificationSpec("squeeze", stage, mode, r=math.acosh(math.sqrt(g)), theta=0.0)
            return ModificationSpec("squeeze", stage, mode,
                                    r=_number(_need(d, "r", path), f"{path}.r", lo=0.0, hi=MAX_SQUEEZE_R),
                                    theta=_number(d.get("theta", 0.0), f"{path}.theta"))
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
        for i, x in enumerate(d.get("modifications", [])):
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
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            phi_grid = tuple(start + step * k for k in range(n))
            phi = phi_grid[0]
        else:
            phi = _number(raw_phi, "interferometer.phi")

        noise = NoiseSpec.from_dict(d.get("noise", {}), "noise")

        det = []
        for i, x in enumerate(d.get("detection", [])):
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
        metrics = tuple(d.get("metrics", ["phase_variance"]))
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
            if x.get("op") == "squeeze":
                x["r"] = value
                return
        raise ConfigError("modifications", "sweep parameter r needs a squeeze modification")
    if parameter in ("T", "m"):
        if parameter == "m" and not float(value).is_integer():
            raise ConfigError("sweep", f"sweep parameter m takes integer values, got {value!r}")
        for x in d.get("modifications", []):
            heralded = x.get("op") in ("add", "subtract")
            # SPDC additions have no beam-splitter transmissivity to sweep
            if heralded and not (parameter == "T" and x.get("mechanism") == "spdc"):
                x[parameter] = value if parameter == "T" else int(value)
                return
        raise ConfigError(
            "modifications", f"sweep parameter {parameter} needs a matching add/subtract modification"
        )
    if parameter in ("L", "D"):
        d.setdefault("noise", {}).setdefault("loss", {})[parameter] = value
        return
    if parameter == "nbar_env":
        noise = d.setdefault("noise", {})
        if "thermal" not in noise:
            noise["thermal"] = {"nbar_env": value, "eta": 0.5}
        else:
            noise["thermal"]["nbar_env"] = value
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
        is_index = seg.lstrip("-").isdigit()
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
                    node[idx] = [] if segments[i + 1].lstrip("-").isdigit() else {}
                node = node[idx]
        else:
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}", f"cannot key into non-object with {seg!r}")
            if last:
                node[seg] = value
            else:
                if seg not in node or node[seg] is None:
                    node[seg] = [] if segments[i + 1].lstrip("-").isdigit() else {}
                node = node[seg]


# ---------------------------------------------------------------------------
# Pipeline construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """Success-branch state with herald bookkeeping; frozen, since cached prefixes are shared."""

    state: Any  # GaussianState or WignerExpr
    success_prob: float = 1.0
    failure_state: Any = None
    failure_prob: float = 0.0
    herald_stage: str | None = None  # None, "input", or "output"
    gaussian_path: bool = True


def _gaussian_possible(config: ScenarioConfig) -> bool:
    if any(s.kind == "fock" for s in config.inputs):
        return False
    return not any(m.heralded for m in config.modifications)


def _pulls_back(config: ScenarioConfig) -> bool:
    """No herald after the phase: the detectors read the cached prefix through the channel after the MZI."""
    return not any(m.heralded and m.stage == "output" for m in config.modifications)


def _input_mods(config: ScenarioConfig) -> tuple:
    return tuple(m for m in config.modifications if m.stage == "input")


def _uniform_loss(config: ScenarioConfig) -> ga.LossSpec | None:
    return config.noise.loss if config.noise.loss is not None and config.noise.loss.total > 0.0 else None


def _transform(state, f: sym.SymplecticTransform):
    if isinstance(state, ga.GaussianState):
        return ga.propagate(state, f)
    return wig.apply_symplectic(state, f)


def _each(res: PipelineResult, step: Callable) -> PipelineResult:
    """Apply one state map to the success branch and, when it is tracked, the failure branch."""
    fail = None if res.failure_state is None else step(res.failure_state)
    return replace(res, state=step(res.state), failure_state=fail)


def _herald(expr: wig.WignerExpr, mod: ModificationSpec) -> tuple:
    if mod.op == "add" and mod.mechanism == "bs":
        return cond.add_photons_bs_branches(expr, mod.mode, mod.m, mod.T)
    if mod.op == "add":
        return cond.add_photon_spdc_branches(expr, mod.mode, mod.r, mod.theta, m=mod.m)
    if mod.m == "click":
        return cond.subtract_click_branches(expr, mod.mode, mod.T)
    return cond.subtract_branches(expr, mod.mode, mod.m, mod.T)


def _modify(res: PipelineResult, mods, stage: str) -> PipelineResult:
    """Apply one stage's modifications in order; the first herald starts the failure branch."""
    for m in mods:
        if not m.heralded:
            f = _gaussian_step(m, res.state.modes)
            res = _each(res, lambda s: _transform(s, f))
            continue
        ok, fail = _herald(res.state, m)
        prob = res.success_prob * ok.probability
        if res.herald_stage is None:
            res = replace(res, state=ok.state, success_prob=prob, failure_state=fail.state,
                          failure_prob=fail.probability, herald_stage=stage)
        else:  # failure tracking only supports a single herald
            res = replace(res, state=ok.state, success_prob=prob, failure_state=None, failure_prob=0.0)
    return res


def _gaussian_step(m: ModificationSpec, modes: int) -> sym.SymplecticTransform:
    """The transform of a squeeze or displacement modification."""
    make = sym.make_squeezer(m.r, m.theta) if m.op == "squeeze" else sym.make_displacement(m.alpha, m.theta)
    return sym.embed(make, [m.mode], modes)


@lru_cache(maxsize=PREFIX_CACHE_SIZE)
def _prefix(inputs: tuple, input_mods: tuple, gaussian_path: bool, loss: ga.LossSpec | None) -> PipelineResult:
    """Inputs and input-stage modifications, heralds included: the part of a pipeline upstream of phi.

    A lossy prefix is the cached lossless one followed by the uniform loss.
    """
    if loss is not None:
        return _each(_prefix(inputs, input_mods, gaussian_path, None), lambda s: _apply_loss(s, loss))
    if gaussian_path:
        state = ga.tensor([s.gaussian() for s in inputs])
    else:
        state = wig.tensor_exprs(inputs[0].expr(), inputs[1].expr())
    return _modify(PipelineResult(state, gaussian_path=gaussian_path), input_mods, "input")


def build_pipeline(config: ScenarioConfig, phi: float | None = None) -> PipelineResult:
    """Assemble inputs -> input mods -> MZI -> noise -> output mods for one phase value.

    Everything before the MZI is phi-independent and comes from the `_prefix`
    cache.  Uniform loss on both modes commutes with the passive MZI, so on the
    Wigner path, where each loss is an ancilla mix and integration, it moves
    into the cached prefix; on the Gaussian path it is one affine map per phi
    and stays after the MZI.  This is the forward reference of `_observer`, and
    the route of a herald after the phase.
    """
    res = _before_output(config, phi)
    return _modify(res, [m for m in config.modifications if m.stage == "output"], "output")


def _before_output(config: ScenarioConfig, phi: float | None = None) -> PipelineResult:
    """The pipeline up to its output stage: the cached prefix, then the MZI and the noise."""
    phi = config.phi if phi is None else phi
    gaussian_path = _gaussian_possible(config)
    loss = _uniform_loss(config)
    res = _prefix(config.inputs, _input_mods(config), gaussian_path, None if gaussian_path else loss)
    mzi = sym.make_mzi(phi)
    res = _each(res, lambda s: _transform(s, mzi))
    if gaussian_path and loss is not None:
        res = _each(res, lambda s: _apply_loss(s, loss))
    if config.noise.has_thermal:
        res = _each(res, lambda s: _apply_thermal(s, config.noise))
    return res


def _counted(config: ScenarioConfig, mode: int, arms: dict) -> PipelineResult:
    """The one-mode state of `mode` that `counts` reads: the pipeline with the other arm traced out.

    Every stage after the MZI (thermal injection, output squeezes and
    displacements, an output herald) acts on one mode, so tracing the other
    arm out after the noise commutes with all of them: `mode`'s output-stage
    modifications then run on the traced arm as mode 1, and the other mode's
    are dropped, so a herald mixes its ancilla into a one-mode state.  The
    traced arm ahead of the output stage depends on T only through
    an input-stage herald; `arms` keeps it, keyed by the input-stage
    modifications, across the grid points of one config.  Only the success
    branch of an input-stage herald is traced.
    """
    key = _input_mods(config)
    if key not in arms:
        res = _before_output(config)
        arms[key] = replace(res, state=wig.marginal_mode(res.state, mode), failure_state=None, failure_prob=0.0)
    mods = [replace(m, mode=1) for m in config.modifications if m.stage == "output" and m.mode == mode]
    return _modify(arms[key], mods, "output")


@lru_cache(maxsize=PREFIX_CACHE_SIZE)
def _prefix_moments(inputs: tuple, input_mods: tuple, loss: ga.LossSpec | None) -> tuple:
    """(normalized state, moment tensor) of each arm of the Wigner-path prefix, None for an untracked arm."""
    res = _prefix(inputs, input_mods, False, loss)
    arms = []
    for state in (res.state, res.failure_state):
        expr = None if state is None else state.normalize()
        arms.append(None if expr is None else (expr, wig.moment_tensor(expr)))
    return tuple(arms)


def _after_mzi(config: ScenarioConfig, loss: ga.LossSpec | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, b, C): the maps after the MZI as one channel X = K Z + b + xi, xi ~ N(0, C), on its output Z.

    A uniform `loss` L comes first: K = sqrt(1 - L) I and C = (L / 2) I.
    Thermal injection on a mode scales it by sqrt(eta) and adds noise of
    variable covariance (1 - eta)(2 nbar + 1)/2 there; an output squeeze or
    displacement F, s then maps (K, b, C) to (F K, F b + s, F C F^T).
    """
    k, b, c = np.eye(4), np.zeros(4), np.zeros((4, 4))
    if loss is not None:
        k, c = math.sqrt(1.0 - loss.total) * k, loss.total / 2.0 * np.eye(4)
    noise = config.noise
    for m in noise.thermal_modes if noise.has_thermal else ():
        i = slice(2 * m - 2, 2 * m)
        g = np.ones(4)
        g[i] = math.sqrt(noise.thermal_eta)
        k, b, c = g[:, None] * k, g * b, g[:, None] * c * g
        c[i, i] += (1.0 - noise.thermal_eta) * (2.0 * noise.thermal_nbar + 1.0) / 2.0 * np.eye(2)
    for m in config.modifications:
        if m.stage == "output":
            f = _gaussian_step(m, 2)
            k, b, c = f.matrix @ k, f.matrix @ b + f.shift, f.matrix @ c @ f.matrix.T
    return k, b, c


def _observer(config: ScenarioConfig) -> Callable[[float], PipelineResult]:
    """phi -> the pipeline result the detectors see, by the config's route.

    With no herald after the phase, each phi is the cached prefix seen through
    X = A Y + b + xi with A = K M(phi); the MZI is a plain matrix, not a
    validated transform.  A Gaussian prefix (R0, sigma0) becomes the
    GaussianState (A R0 + b, A sigma0 A^T + 2C); the Wigner prefix arms become
    `AffineImage`s.  A herald after the phase builds the pipeline at each phi.
    """
    if not _pulls_back(config):
        return lambda phi: build_pipeline(config, phi)
    gaussian_path = _gaussian_possible(config)
    loss = _uniform_loss(config)
    # as in build_pipeline, the uniform loss follows the MZI on the Gaussian path and sits in the prefix otherwise
    prefix_loss, channel_loss = (None, loss) if gaussian_path else (loss, None)
    k, b, c = _after_mzi(config, channel_loss)
    prefix = _prefix(config.inputs, _input_mods(config), gaussian_path, prefix_loss)
    arms = None if gaussian_path else _prefix_moments(config.inputs, _input_mods(config), prefix_loss)

    def observe(phi: float) -> PipelineResult:
        a = k @ sym.mzi_matrix(phi)
        if arms is None:
            r0, s0 = prefix.state.mean, prefix.state.cov
            cov = a @ s0 @ a.T + 2.0 * c
            return replace(prefix, state=ga.GaussianState(a @ r0 + b, (cov + cov.T) / 2.0))
        ok, fail = (None if arm is None else wig.AffineImage(*arm, a, b, c) for arm in arms)
        return replace(prefix, state=ok, failure_state=fail)

    return observe


def _tangent(config: ScenarioConfig, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(dR/dphi, dsigma/dphi) of a Gaussian config on the prefix channel, from A' = K M'(phi).

    dR = A' R0 and dsigma = A' sigma0 A^T + A sigma0 A'^T, with A = K M(phi).
    """
    k = _after_mzi(config, _uniform_loss(config))[0]
    prefix = _prefix(config.inputs, _input_mods(config), True, None).state
    a, da = k @ sym.mzi_matrix(phi), k @ sym.mzi_phase_derivative(phi)
    half = da @ prefix.cov @ a.T
    return da @ prefix.mean, half + half.T


def _apply_loss(state, loss: ga.LossSpec):
    if isinstance(state, ga.GaussianState):
        return ga.apply_loss(state, loss)
    for m in range(1, state.modes + 1):
        state = wig.attenuate(state, m, 1.0 - loss.total, 0.0)
    return state


def _apply_thermal(state, noise: NoiseSpec):
    for m in noise.thermal_modes:
        if isinstance(state, ga.GaussianState):
            state = ga.inject_thermal(state, m, noise.thermal_nbar, noise.thermal_eta)
        else:
            state = wig.attenuate(state, m, noise.thermal_eta, noise.thermal_nbar)
    return state


# ---------------------------------------------------------------------------
# Metric evaluation.
# ---------------------------------------------------------------------------


def _signal_fns(config: ScenarioConfig, scheme: meas.DetectionScheme) -> tuple[Callable, Callable]:
    """mean(phi) and variance(phi) of one detector; each phi is observed and measured once."""
    observe = _observer(config)
    seen: dict[float, meas.MeasurementMoments] = {}

    def at(phi: float) -> meas.MeasurementMoments:
        if phi not in seen:
            seen[phi] = meas.measure(observe(phi).state, scheme)
        return seen[phi]

    return (lambda p: at(p).mean), (lambda p: at(p).variance)


class _Signal(NamedTuple):
    """The exact phase signal of a detector: V = Var / <O>'^2 over an array of phases.

    `variance` is inf where the slope (at a dark fringe, the curvature) is
    not above `floor`, its rounding level in phi.
    """

    variance: Callable[[np.ndarray], np.ndarray]
    floor: float


# Seeds of the golden-section search, next to its coarse scan: the published parity optimum.
_OPTIMUM_SEEDS = {"parity": math.pi}


def _optimal_phi(config: ScenarioConfig, scheme: meas.DetectionScheme) -> tuple[float, float, _Signal | None]:
    """The phase-variance minimum over one period of V in phi, as (phi, variance), and the exact signal it is read from.

    On the prefix channel A(phi) = K M(phi) holds only cos(phi/2) and
    sin(phi/2), and M(phi + 2 pi) = -M(phi).  V has period 2 pi for homodyne
    and for an even detector (every other one) with no output displacement;
    an output displacement b breaks that symmetry for an even detector, and V
    is searched over [0, 4 pi) instead.

    A polynomial detector on the prefix channel is a trigonometric polynomial
    in phi: <O> of a degree-q detector has harmonics up to q in phi/2 and
    <O^2> up to 2q.  An even detector with no output displacement has even
    harmonics only, and is read in phi itself.  Its samples at 4d + 1
    equispaced phases (five, or nine for an even detector behind an output
    displacement) fix both moments, and `est.trig_signal` gives V at every
    phi and at every stationary point exactly.  Parity and click on a
    Gaussian state read the batched kernel jet (`_kernel_jet`), through
    `est.jet_phase_variance` at any phi and `_kernel_optimum` for the
    minimum.  The fixed-phase variance, the drift trials and the optimum of
    such a detector all read this one signal.  A herald after the phase, and
    parity and click on a Wigner state, have no exact signal (None): they take
    a seeded golden-section search from a 25-point scan over [0, 2 pi), and
    error propagation with central differences at any other phi.

    Minima within a relative OPTIMUM_TIE of the lowest are equal, and the one at
    the smallest phi is reported, so that rounding cannot move the optimum
    between mirror minima.  Raises SignalStationary when no phase gives a
    finite variance.
    """
    shifted = bool(np.any(_after_mzi(config, None)[1]))
    if _pulls_back(config) and scheme.kind in meas.POLYNOMIAL_KINDS:
        even = scheme.kind != "homodyne"
        rate = 2 if shifted or not even else 1
        n = 9 if even and shifted else 5
        observe = _observer(config)
        samples = [meas.measure(observe(2.0 * math.pi * rate * j / n).state, scheme) for j in range(n)]
        variance, floor, points = est.trig_signal(samples, rate)
        return (*_least(points), _Signal(variance, floor))
    if _gaussian_possible(config):
        jet = _kernel_jet(config, scheme)
        click = scheme.kind == "click"
        # |<O>| <= 1, so the slope floor of jet_phase_variance is SLOPE_FLOOR
        signal = _Signal(lambda phi: est.jet_phase_variance(*jet(phi), click), est.SLOPE_FLOOR)
        return (*_kernel_optimum(config, scheme, jet, 4.0 * math.pi if shifted else 2.0 * math.pi), signal)
    return (*_least(_golden_minima(config, scheme)), None)


def _phase_variance(config: ScenarioConfig, scheme: meas.DetectionScheme, signal: _Signal | None, phi: float) -> float:
    """V at one phase: from the detector's exact signal, or by error propagation where it has none."""
    if signal is None:
        return est.phase_variance_error_prop(*_signal_fns(config, scheme), phi)
    v = float(signal.variance(np.array([phi]))[0])
    if not math.isfinite(v):
        raise SignalStationary(f"signal slope below {signal.floor:.0e} at phi={phi:.6g}")
    return v


def _least(minima: list) -> tuple[float, float]:
    """The lowest of (phi, variance) pairs, the smallest phi of those within OPTIMUM_TIE of it."""
    low = min((v for _, v in minima), default=math.inf)
    if not math.isfinite(low):
        raise SignalStationary("no searched phase gives a finite phase variance")
    return min((x, v) for x, v in minima if v - low <= OPTIMUM_TIE * abs(low))


def _kernel_jet(config: ScenarioConfig, scheme: meas.DetectionScheme) -> Callable:
    """The batched jet of parity or click on the Gaussian prefix channel.

    The jet maps an array of phases to <O>, <O>', <O>'' and the rounding level
    of Var there, with O the no-click indicator for click: V is the same for
    both outcomes of a Bernoulli signal, and the no-click probability keeps
    its precision at the bright port, where the click probability rounds to 1.

    On the detected mode's rows, A(phi) = a_c cos(phi/2) + a_s sin(phi/2) with
    a_c = K M(0) = K and a_s = 2 K M'(0).  So the mode block's mean is
    mu = b + m_c cos(phi/2) + m_s sin(phi/2) and its covariance
    sigma = S0 + S1 cos phi + S2 sin phi, and A'' = -A/4 gives
    mu'' = -(mu - b)/4 and sigma'' = S0 - sigma.  The kernel is the parity,
    or half the no-click probability with S0 + I in place of S0
    (`meas.kernel_jet`).
    """
    k, b, c = _after_mzi(config, _uniform_loss(config))
    state = _prefix(config.inputs, _input_mods(config), True, None).state
    r0, s0 = state.mean, state.cov
    rows = slice(2 * scheme.mode - 2, 2 * scheme.mode)
    a_c, a_s, b = k[rows], 2.0 * (k @ sym.mzi_phase_derivative(0.0))[rows], b[rows]
    m_c, m_s = a_c @ r0, a_s @ r0
    s_cc, s_cs, s_ss = a_c @ s0 @ a_c.T, a_c @ s0 @ a_s.T, a_s @ s0 @ a_s.T
    s_0 = (s_cc + s_ss) / 2.0 + 2.0 * c[rows, rows] + (np.eye(2) if scheme.kind == "click" else 0.0)
    s_1, s_2 = (s_cc - s_ss) / 2.0, (s_cs + s_cs.T) / 2.0
    terms = float(np.sum(np.abs(s_0) + np.abs(s_1) + np.abs(s_2)))

    def jet(phi: np.ndarray) -> tuple:
        ch, sh = np.cos(phi / 2.0)[:, None], np.sin(phi / 2.0)[:, None]
        cf, sf = np.cos(phi)[:, None, None], np.sin(phi)[:, None, None]
        mu = b + m_c * ch + m_s * sh
        sigma = s_0 + s_1 * cf + s_2 * sf
        value, slope, curve = meas.kernel_jet(mu, sigma, (m_s * ch - m_c * sh) / 2.0, s_2 * cf - s_1 * sf,
                                              (b - mu) / 4.0, s_0 - sigma)
        # sigma carries the rounding of its terms, which log det sigma amplifies by |sigma^-1|, relative to
        # <O>: a no-click probability that is small but resolved is no dark fringe
        det = sigma[:, 0, 0] * sigma[:, 1, 1] - sigma[:, 0, 1] * sigma[:, 1, 0]
        noise = est.SLOPE_NOISE * terms * np.abs(sigma).sum(axis=(1, 2)) / np.abs(det)
        scale = 1.0 if scheme.kind == "parity" else 2.0
        return scale * value, scale * slope, scale * curve, noise * np.abs(scale * value)

    return jet


def _mzi_qfi(config: ScenarioConfig) -> float:
    """The QFI of the lossless MZI family of a Gaussian prefix, the same at every phi.

    The channel after the MZI can only lower it, so it bounds the information
    of every detector of the config at every phi.
    """
    state = _prefix(config.inputs, _input_mods(config), True, None).state
    g = sym.mzi_phase_derivative(0.0)
    half = g @ state.cov
    return est.qfi_mixed_gaussian(state, g @ state.mean, half + half.T)


def _kernel_optimum(config: ScenarioConfig, scheme: meas.DetectionScheme, jet: Callable,
                    period: float) -> tuple[float, float]:
    """The phase-variance minimum of parity or click on a Gaussian state, from one batched grid of its jet.

    The grid has cells of width 1 / sqrt(F), with F = `_mzi_qfi`: it bounds
    the Fisher information Var^-1 <O>'^2 of either detector at every phi, so a
    cell is the width of the narrowest fringe.  The fringe angle
    theta = arccos <O> (parity), or arccos(1 - 2P) (click), turns by at most
    one radian across it, since theta'^2 = <O>'^2 / Var <= F.  `est.kernel_minima` refines the stationary
    points on that grid.  The least of them (by the OPTIMUM_TIE rule) is
    observed once through `_observer`, so that the reported variance comes
    from a validated state: its measured mean and the kernel's exact slope on
    its detected block (`_tangent`), with the jet's curvature at a dark fringe.
    """
    cells = 4 * max(math.ceil(period * math.sqrt(_mzi_qfi(config)) / 4.0), 1)
    phi, _ = _least(est.kernel_minima(jet, period, cells, scheme.kind == "click"))
    res = _observer(config)(phi)
    dmean, dcov = _tangent(config, phi)
    i = slice(2 * scheme.mode - 2, 2 * scheme.mode)
    k = res.state.cov[i, i] + (np.eye(2) if scheme.kind == "click" else 0.0)
    m1 = float(meas.kernel_jet(res.state.mean[i], k, dmean[i], dcov[i, i], np.zeros(2), np.zeros((2, 2)))[1])
    m = meas.measure(res.state, scheme).mean
    if scheme.kind == "click":  # the no-click probability, twice the kernel
        m, m1 = 1.0 - m, 2.0 * m1
    m2, noise = jet(np.array([phi]))[2:]
    v = float(est.jet_phase_variance(np.array([m]), np.array([m1]), m2, noise, scheme.kind == "click")[0])
    if not math.isfinite(v):
        raise SignalStationary(f"signal slope below rounding at the optimum phi={phi:.6g}")
    return phi, v


def _golden_minima(config: ScenarioConfig, scheme: meas.DetectionScheme) -> list[tuple[float, float]]:
    """Golden-section minima from the seed of the scheme and the two best of 25 scanned phases."""
    mean, var = _signal_fns(config, scheme)

    def variance_at(phi: float) -> float:
        try:
            return est.phase_variance_error_prop(mean, var, phi)
        except (SignalStationary, ImprobableBranch, ValueError):
            return float("inf")

    seeds = [_OPTIMUM_SEEDS[scheme.kind]] if scheme.kind in _OPTIMUM_SEEDS else []
    coarse = np.linspace(0.05, 2.0 * math.pi - 0.05, 25)
    seeds.extend(coarse[np.argsort([variance_at(p) for p in coarse])[:2]])
    return [est.golden_minimize(variance_at, s - 0.35, s + 0.35) for s in seeds]


def _click_cfi(config: ScenarioConfig, phi: float) -> float:
    """Total click-detection CFI over both output modes and both herald arms.

    Without a herald the success probability is 1 and there is no failure arm,
    so this reduces to the plain sum of the two detectors' CFIs.  A Gaussian
    state reads each detector's two outcomes from its no-click jet
    (`_kernel_jet`): the no-click probability and its exact slope keep their
    precision at a bright port, where the click probability rounds to 1
    (`est.binary_cfi`).  The Wigner arms take central differences, each phase
    observed once.
    """
    if _gaussian_possible(config):
        jets = (_kernel_jet(config, meas.DetectionScheme("click", m))(np.array([phi])) for m in (1, 2))
        return sum(est.binary_cfi(float(p0[0]), float(dp0[0]), phi) for p0, dp0, *_ in jets)
    observe = cache(_observer(config))

    def arm(branch: str) -> list:
        def click(mode: int):
            return lambda p: meas.click_probability(getattr(observe(p), branch), mode)

        return [est.two_outcome(click(m)) for m in (1, 2)]

    res = observe(phi)
    return est.probabilistic_cfi(
        lambda p: observe(p).success_prob,
        arm("state"),
        arm("failure_state") if res.failure_state is not None else None,
        phi,
    )


def _qfi(config: ScenarioConfig, phi: float) -> tuple[float | None, str]:
    """QFI of the phi-family, by the route the state's purity allows.

    A herald after the phase post-selects on a phi-dependent outcome; the QFI of
    that conditional state does not bound the herald-weighted CFI, so none is given.
    A Gaussian family takes one observation: `est.qfi_mixed_gaussian` on the
    state and its exact tangent (`_tangent`), labelled pure or mixed from the
    symplectic eigenvalues that formula uses.  On the Wigner path with no
    noise after the MZI (C = 0, which thermal injection at eta = 1 keeps), a
    pure prefix is a pure input to the MZI, whose phase is generated by
    J_z = (n1 - n2)/2 after its first 50/50 splitter: F = 4 Var(J_z) =
    Var(n1 - n2) there, the same at every phi and read from the prefix's
    moment tensor.  The output squeezes and displacements are phi-independent
    unitaries and keep it.  Noise after the MZI leaves a mixed non-Gaussian
    family, for which no QFI is given.
    """
    if not _pulls_back(config):
        return None, "unavailable (herald after the phase)"
    if _gaussian_possible(config):
        res = _observer(config)(phi)
        nu = ga.williamson(res.state.cov)[0]
        route = "pure_gaussian" if nu[-1] ** 2 - 1.0 <= est.PURE_GAUSSIAN_TOL else "mixed_gaussian"
        return est.qfi_mixed_gaussian(res.state, *_tangent(config, phi)), route
    loss = _uniform_loss(config)
    mixed = None, "unavailable (mixed non-Gaussian)"
    if np.any(_after_mzi(config, None)[2]):
        return mixed
    try:
        est.require_pure_wigner(_prefix(config.inputs, _input_mods(config), False, loss).state)
    except PurityViolation:
        return mixed
    expr, tensor = _prefix_moments(config.inputs, _input_mods(config), loss)[0]
    split = wig.AffineImage(expr, tensor, sym.make_beam_splitter(0.5).matrix, np.zeros(4), np.zeros((4, 4)))
    return meas.intensity_difference(split, 1, 2).variance, "pure_wigner"


def _input_mean_photon(config: ScenarioConfig) -> float:
    """Total mean photon number entering the interferometer (after the input-stage modifications).

    The passive MZI keeps the total, so it is read from the cached lossless
    prefix: the state itself on the Gaussian path, the second moments of its
    moment tensor (<n_k> = (<x_k^2> + <p_k^2> - 1) / 2) on the Wigner path.
    """
    if _gaussian_possible(config):
        return ga.total_mean_photon(_prefix(config.inputs, _input_mods(config), True, None).state)
    tensor = _prefix_moments(config.inputs, _input_mods(config), None)[0][1]
    xx = np.diagonal(tensor[1:, 1:, 0, 0])  # <x_1^2>, <p_1^2>, <x_2^2>, <p_2^2>
    return float(sum(0.5 * (xx[i] + xx[i + 1]) - 0.5 for i in (0, 2)))


def evaluate_point(config: ScenarioConfig, phi: float | None = None, n_max: int = wig.DEFAULT_NMAX):
    """Compute the requested metrics at one parameter point.

    A herald whose success probability sits below the renormalization floor
    (transmissivity pinned at 1, say) yields a flagged row rather than a
    failure.
    """
    phi = config.phi if phi is None else phi
    report = est.EstimationReport(phi=phi)
    warnings: list[str] = []
    distributions: list[dict] = []
    try:
        res = _observer(config)(phi)
    except ImprobableBranch as exc:
        report.extras["flag"] = "improbable herald branch"
        warnings.append(f"phi={phi:.6g}: {exc}")
        return report, warnings, distributions
    if res.success_prob < 1.0:
        report.extras["herald_probability"] = res.success_prob

    ntot = _input_mean_photon(config)
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
                report.phase_variance[scheme.label] = _phase_variance(config, scheme, signal, phi)
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
        qfi, route = _qfi(config, phi)
        if qfi is None:
            warnings.append(f"qfi: {route}")
        else:
            report.extras["qfi_route"] = route
            if qfi > est.SLOPE_FLOOR**2:
                report.qfi, report.qcrb = qfi, 1.0 / qfi
            else:
                report.qfi = 0.0
                warnings.append(f"qfi at phi={phi:.6g}: {qfi:.3e}, no phase information and no QCRB")

    if "snr" in config.metrics:
        added = {m.mode: 0 for m in config.modifications}
        for m in config.modifications:
            if m.op == "add":
                added[m.mode] = added.get(m.mode, 0) + int(m.m)
        for mode in (1, 2):
            mom = meas.intensity(res.state, mode)
            try:
                report.snr[f"mode{mode}"] = est.snr(mom, subtract_injected=added.get(mode, 0))
            except ValueError as exc:
                warnings.append(f"snr mode {mode}: {exc}")

    if "distributions" in config.metrics:
        # the distribution needs the state itself, not its pulled-back moments
        state = build_pipeline(config, phi).state if isinstance(res.state, wig.AffineImage) else res.state
        expr = state if isinstance(state, wig.WignerExpr) else wig.from_gaussian(state)
        for mode in (1, 2):
            dist = wig.photon_number_distribution(expr, mode, n_max)
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
        path = os.path.join(out_dir, "results.csv")
        cols: list[str] = []
        for row in report.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for row in report.rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
        written.append(path)
        if report.distributions:
            dpath = os.path.join(out_dir, "distributions.csv")
            with open(dpath, "w", encoding="utf-8") as fh:
                fh.write("grid_index,mode,n,p\n")
                for d in report.distributions:
                    fh.write(f"{d['grid_index']},{d['mode']},{d['n']},{_fmt(d['p'])}\n")
            written.append(dpath)
        if report.traces:
            tpath = os.path.join(out_dir, "traces.csv")
            cols = list(report.traces[0].keys())
            with open(tpath, "w", encoding="utf-8") as fh:
                fh.write(",".join(cols) + "\n")
                for row in report.traces:
                    fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
            written.append(tpath)
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
    """Evaluate the metrics at each grid point, in grid order."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError("sweep", f"unknown sweep parameter {parameter!r} (menu: {SWEEP_PARAMETERS})")
    grid = [float(g) for g in grid]
    if not grid:
        raise ConfigError("sweep", "empty sweep grid")
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
    the per-scheme sigma, or uniformly within 20% of the optimum) and evaluates
    the phase variance there, all trials of a detector with an exact signal in
    one call; the trace reports the running mean versus trial count.
    """
    if trials < 1:
        raise ConfigError("drift.trials", "need at least one trial")
    if distribution not in ("gaussian", "uniform20"):
        raise ConfigError("drift.distribution", "distribution must be 'gaussian' or 'uniform20'")
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
        if distribution == "gaussian":
            phis = rng.normal(opt_phi, sig, trials)
        else:
            phis = opt_phi * rng.uniform(0.8, 1.2, trials)
        if signal is not None:
            values = signal.variance(phis)
        else:
            mean, var = _signal_fns(config, scheme)
            values = []
            for phi_k in phis:
                try:
                    values.append(est.phase_variance_error_prop(mean, var, phi_k))
                except (SignalStationary, DegenerateBranch):
                    values.append(math.inf)
        total = 0.0
        for k, (phi_k, v) in enumerate(zip(phis.tolist(), map(float, values)), 1):
            if not math.isfinite(v):
                v = opt_var  # a flat draw carries no usable slope; score it at the optimum
                warnings.append(f"drift[{scheme.label}] trial {k}: stationary draw at phi={phi_k:.6g}")
            total += v
            traces.append({"scheme": scheme.label, "trial": k, "running_mean": total / k})
        rows.append(
            {
                "index": si,
                "scheme": scheme.label,
                "optimal_phi": opt_phi,
                "optimal_variance": opt_var,
                "sigma": sig,
                "final_running_mean": total / trials,
            }
        )
    return RunReport(config=config.raw, rows=rows, seed=seed, warnings=warnings, traces=traces)


def simulate_counts(config: ScenarioConfig, trials: int, seed: int, t_grid=None) -> RunReport:
    """Post-selected photon-counting experiment at fixed total trial budget.

    For each transmissivity grid point the herald keeps M ~ Binomial(trials,
    P_success) measurements; M photon-number samples are drawn from the
    heralded state's distribution and reduced to a sample mean and sample SNR,
    reported against the analytic values.  All schemes spend the same `trials`
    (equal experiment time); the substream for each grid point derives from
    (seed, index) so execution order cannot matter.

    The detectors read the herald's mode alone: the other arm is traced out
    after the noise, ahead of the output stage, and the heralded state is one
    mode (`_counted`).  A herald below the renormalization floor (T = 1 for a
    beam-splitter addition) gives a row flagged "improbable herald branch"
    with nothing kept, and a heralded state of zero photon-number variance (a
    Fock state) a row without `theory_snr`; each adds a warning.
    """
    if trials < 1:
        raise ConfigError("counts.trials", "need at least one trial")
    herald = [m for m in config.modifications if m.heralded]
    if len(herald) != 1:
        raise ConfigError("modifications", "simulate_counts needs exactly one add/subtract modification")
    mod = herald[0]
    if mod.op == "add" and mod.mechanism == "spdc":
        raise ConfigError("modifications", "simulate_counts sweeps the BS transmissivity; use the bs mechanism")
    if t_grid is None:
        t_grid = np.arange(0.05, 1.0, 0.05)
    rows = []
    warnings: list[str] = []
    added = int(mod.m) if (mod.op == "add" and isinstance(mod.m, int)) else 0
    arms: dict = {}
    for idx, T in enumerate(float(t) for t in t_grid):
        try:
            res = _counted(config.with_values(T=T), mod.mode, arms)
        except ImprobableBranch as exc:
            rows.append({"index": idx, "T": T, "kept": 0, "flag": "improbable herald branch"})
            warnings.append(f"T={T:g}: {exc}")
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        kept = int(rng.binomial(trials, min(max(res.success_prob, 0.0), 1.0)))
        theory = meas.intensity(res.state, 1)
        row = {"index": idx, "T": T, "herald_probability": res.success_prob, "kept": kept, "theory_mean": theory.mean}
        try:
            row["theory_snr"] = est.snr(theory, subtract_injected=added)
        except ValueError as exc:
            warnings.append(f"T={T:g}: theory_snr: {exc}")
        if kept == 0:
            row["flag"] = "no kept measurements"
            warnings.append(f"T={T:g}: herald kept zero of {trials} trials")
        else:
            dist = wig.photon_number_distribution(res.state, 1)
            samples = dist.sample(rng, kept)
            mean = float(np.mean(samples))
            row["sample_mean"] = mean
            if kept > 1 and float(np.std(samples)) > 0.0:
                row["sample_snr"] = (mean - added) / float(np.std(samples, ddof=1))
        rows.append(row)
    return RunReport(config=config.raw, rows=rows, parameter="T", grid=[float(t) for t in t_grid], seed=seed,
                     warnings=warnings)
