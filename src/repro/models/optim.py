"""Adam optimizer with checkpoint-friendly, inspectable state.

The optimizer keeps, per parameter, the same three components the paper's
byte accounting distinguishes (Section 2.3 / Figure 2):

* a *master copy* of the weights (``master``, the fp32 copy kept by
  mixed-precision training),
* the two Adam moments (``m`` and ``v``),
* a step counter.

``state_dict``/``load_state_dict`` round-trip all of it keyed by the
parameter name, which is what the checkpoint layer shards and what PEC
selectively drops.

``versions`` counts, per parameter, how often its arrays were rebound.
Every writer bumps it: :meth:`Adam.step` (only for parameters that had a
gradient), :meth:`Adam.load_state_dict` and anything calling
:meth:`Adam.bump_version`.  ``Adam`` rebinds arrays rather than writing
them in place, so an unchanged version means unchanged content, and the
checkpoint manager skips clean state on that evidence without copying
or hashing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .autograd import Parameter


@dataclass
class AdamParamState:
    """Optimizer state for a single parameter."""

    master: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def copy(self) -> "AdamParamState":
        return AdamParamState(self.master.copy(), self.m.copy(), self.v.copy(), self.step)


class Adam:
    """Adam over named parameters.

    Parameters are supplied as ``(name, Parameter)`` pairs so optimizer
    state can be addressed by the same dotted names used for checkpoint
    entries.
    """

    def __init__(
        self,
        named_params: Iterable[Tuple[str, Parameter]],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float = 0.0,
    ) -> None:
        self.params: "Dict[str, Parameter]" = dict(named_params)
        if not self.params:
            raise ValueError("Adam received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self.state: "Dict[str, AdamParamState]" = {
            name: AdamParamState(
                master=p.data.astype(np.float64).copy(),
                m=np.zeros_like(p.data, dtype=np.float64),
                v=np.zeros_like(p.data, dtype=np.float64),
            )
            for name, p in self.params.items()
        }
        self.versions: Dict[str, int] = dict.fromkeys(self.params, 0)

    def bump_version(self, name: str) -> None:
        """Record that ``name``'s weights or optimizer state changed.

        Code that rebinds or mutates a parameter's arrays outside
        :meth:`step` / :meth:`load_state_dict` must call this, or the
        checkpoint manager treats the old content as still current.
        """
        self.versions[name] += 1

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def _clip_gradients(self) -> None:
        if self.grad_clip <= 0:
            return
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = np.sqrt(total)
        if norm > self.grad_clip:
            scale = self.grad_clip / (norm + 1e-12)
            for p in self.params.values():
                if p.grad is not None:
                    p.grad *= scale

    def step(self) -> None:
        """Apply one Adam update to every parameter with a gradient."""
        self._clip_gradients()
        for name, p in self.params.items():
            if p.grad is None:
                continue
            state = self.state[name]
            grad = p.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * state.master
            state.step += 1
            state.m = self.beta1 * state.m + (1 - self.beta1) * grad
            state.v = self.beta2 * state.v + (1 - self.beta2) * grad**2
            m_hat = state.m / (1 - self.beta1**state.step)
            v_hat = state.v / (1 - self.beta2**state.step)
            state.master = state.master - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data = state.master.copy()
            self.versions[name] += 1

    # ------------------------------------------------------------------
    # Checkpoint interface
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {
            name: {
                "master": s.master.copy(),
                "m": s.m.copy(),
                "v": s.v.copy(),
                "step": np.asarray(s.step),
            }
            for name, s in self.state.items()
        }

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]], strict: bool = True) -> None:
        missing = set(self.state) - set(state)
        if strict and missing:
            raise KeyError(f"optimizer state missing entries: {sorted(missing)[:5]} ...")
        for name, entry in state.items():
            if name not in self.state:
                if strict:
                    raise KeyError(f"unexpected optimizer entry {name!r}")
                continue
            s = self.state[name]
            s.master = np.array(entry["master"], dtype=np.float64)
            s.m = np.array(entry["m"], dtype=np.float64)
            s.v = np.array(entry["v"], dtype=np.float64)
            s.step = int(np.asarray(entry["step"]).reshape(-1)[0])
            self.params[name].data = s.master.copy()
            self.versions[name] += 1

    def load_param_entry(self, name: str, entry: Dict[str, np.ndarray]) -> None:
        """Restore a single parameter's weights + optimizer state."""
        self.load_state_dict({name: entry}, strict=False)
