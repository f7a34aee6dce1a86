"""The SSYNC execution framework.

Robots are anonymous: a configuration maps identifiers to locations, but a
robogram only ever sees a *spectrum* -- the multiset of inhabited locations
(strong global multiplicity) -- through its own frame. Each round the demon
activates an arbitrary subset of robots and hands each one a fresh local
frame; an activated robot observes the spectrum through its frame (its
*view*), runs the robogram (a callable from view to destination), and its
destination is mapped back to the global frame. The spectrum is the view in
the global frame: the two are one type, ``View``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import frames
from .frames import FrameParams
from .geometry import integer_form
from .scalars import Backend, Point

Configuration = tuple[Point, ...]

# The spectrum (``spectrum_of``) and what an activated robot sees, the
# spectrum mapped into its frame: a view's towers (``towers``, in the
# spectrum's key order) and their multiplicities (``mults``, index-aligned).
View = frames.View

# A protocol: a pure function from view to destination. Taking only a view
# enforces anonymity; purity gives compatibility.
Robogram = Callable[[View], Point]

# A demon is a lazily evaluated stream of demonic actions; adversarial
# strategies may inspect the current configuration when choosing one.
Demon = Callable[[int, Configuration], "DemonicAction"]

# A round function: the configuration one demonic action leads to.
Step = Callable[["DemonicAction", Configuration], Configuration]


@dataclass(frozen=True)
class DemonicAction:
    """One round of demonic choices: per robot either None (inactive) or the
    frame parameters for its activation."""

    steps: tuple[Optional[FrameParams], ...]

    def activated(self) -> tuple[int, ...]:
        return tuple(i for i, fp in enumerate(self.steps) if fp is not None)


def spectrum_of(conf: Configuration, backend: Backend) -> View:
    """Multiset of robot locations, the configuration seen in the global
    frame; invariant under identifier permutations.

    On the exact backend it is ``Counter(conf)``: its keys, the first robot
    objects seen at each location, as their ``geometry.integer_form``, and
    its counts. On the floating backend, locations equal under the tolerance
    are merged into one tower (first-seen location is the representative).
    """
    if backend.is_exact:
        counts = Counter(conf)
        return View(integer_form(list(counts)), tuple(counts.values()))
    spec: dict[Point, int] = {}
    for loc in conf:
        rep = next((k for k in spec if backend.points_eq(k, loc)), loc)
        spec[rep] = spec.get(rep, 0) + 1
    return View(list(spec), tuple(spec.values()))


def round(
    r: Robogram,
    da: DemonicAction,
    conf: Configuration,
    backend: Backend,
    spectrum: Optional[View] = None,
) -> Configuration:
    """One SSYNC round: every activated robot atomically Looks (through its
    frame), Computes (the robogram on its view) and Moves (the destination
    mapped back to the global frame). Inactive robots stay put.

    A frame is a bijection, so a robot's view is the image of the spectrum,
    built here or given as ``spectrum``, which must be ``spectrum_of(conf,
    backend)``, mapped through its frame (``frames.view``), its own tower to
    exactly the origin, in the spectrum's key order. On floats the tolerance
    merges robots once, in the global frame, so what a robot sees does not
    depend on the zoom of its frame.

    Each activation builds one frame, the demon's ``FrameParams`` centered on
    the robot, with no arithmetic; an exact one reuses its ``FrameParams``'
    linear form. A robot whose destination is its own origin stays exactly
    where it is, on both backends; any other destination comes back through
    ``preimage``.
    """
    if len(da.steps) != len(conf):
        raise ValueError(f"action for {len(da.steps)} robots applied to {len(conf)}")
    global_view = spectrum_of(conf, backend) if spectrum is None else spectrum
    origin = backend.origin()
    out: list[Point] = []
    for loc, fp in zip(conf, da.steps):
        if fp is None:
            out.append(loc)
            continue
        f = frames.make_frame(loc, fp, backend)
        dest = r(frames.view(f, global_view))
        out.append(loc if dest == origin else frames.preimage(f, dest))
    return tuple(out)


@dataclass(frozen=True)
class TraceStep:
    index: int
    action: DemonicAction
    config: Configuration


@dataclass
class Trace:
    """A materialized execution prefix: initial configuration plus one step
    record per executed round (the configuration chain must satisfy
    config[i+1] == round(r, action[i], config[i]))."""

    initial: Configuration
    steps: list[TraceStep]
    stopped_early: bool = False

    def configs(self) -> list[Configuration]:
        return [self.initial] + [st.config for st in self.steps]

    def actions(self) -> list[DemonicAction]:
        return [st.action for st in self.steps]


def execute(
    step: Step,
    demon: Demon,
    conf: Configuration,
    horizon: int,
    stop: Callable[[Configuration], bool] | None = None,
) -> Trace:
    """Fold a round function ``step(action, conf) -> conf`` over the demon's
    first ``horizon`` actions.

    Stops early (recording the fact) as soon as ``stop`` holds, checked on
    the initial configuration as well.
    """
    if stop is not None and stop(conf):
        return Trace(conf, [], stopped_early=True)
    steps: list[TraceStep] = []
    cur = conf
    for i in range(horizon):
        da = demon(i, cur)
        cur = step(da, cur)
        steps.append(TraceStep(i, da, cur))
        if stop is not None and stop(cur):
            return Trace(conf, steps, stopped_early=True)
    return Trace(conf, steps, stopped_early=False)


def check_k_fair(actions: Sequence[DemonicAction], k: int) -> bool:
    """Bounded fairness: every robot is activated at least once in every
    window of ``k`` consecutive actions. Vacuously true when the list is
    shorter than ``k``.
    """
    if not actions:
        return True
    n_robots = len(actions[0].steps)
    active = [set(a.activated()) for a in actions]
    for start in range(len(actions) - k + 1):
        seen: set[int] = set()
        for s in active[start : start + k]:
            seen |= s
        if len(seen) < n_robots:
            return False
    return True
