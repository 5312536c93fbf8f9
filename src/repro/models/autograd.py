"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the training substrate used to run the
paper's accuracy experiments (Figures 5, 14, 15 and Tables 3-4) on real
gradient descent without a GPU framework.  It provides a small ``Tensor``
class that records a computation graph and a :func:`backward` pass that
accumulates gradients, plus the operator set needed by a Mixture-of-Experts
transformer: dense linear algebra, softmax/layer-norm/GELU nonlinearities,
embedding lookups, and the row gather/scatter primitives used for expert
token dispatch.

The engine is intentionally explicit: every op builds a closure that knows
how to push its output gradient to its parents.  No tape is kept globally —
the graph lives in the output tensor, so independent models never interact.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]

_DEFAULT_DTYPE = np.float64


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return value
        return value.astype(_DEFAULT_DTYPE)
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        The value wrapped by this tensor.  Floating point arrays are used
        as-is; everything else is converted to the default dtype.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    parents:
        Tensors this value was computed from (graph edges).
    backward_fn:
        Closure that receives the gradient of the loss w.r.t. this tensor
        and pushes gradients into the parents' ``.grad`` fields.
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Gradient plumbing
    # ------------------------------------------------------------------
    def accumulate_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def _binary(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, self._binary(other))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return add(self, neg(self._binary(other)))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return add(neg(self), self._binary(other))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, self._binary(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return mul(self, power(self._binary(other), -1.0))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return mul(self._binary(other), power(self, -1.0))

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    # Convenience method forms -----------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        return transpose(self, axes)


class Parameter(Tensor):
    """A trainable tensor; always requires grad."""

    __slots__ = ()

    def __init__(self, data: ArrayLike, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


def _make(
    data: np.ndarray,
    parents: Tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)


# ----------------------------------------------------------------------
# Elementwise and reduction ops
# ----------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad, b.shape))

    return _make(out_data, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(-grad)

    return _make(-a.data, (a,), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn)


def power(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data**exponent

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * out_data)

    return _make(out_data, (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad / a.data)

    return _make(np.log(a.data), (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * (1.0 - out_data**2))

    return _make(out_data, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad * (a.data > 0.0))

    return _make(out_data, (a,), backward_fn)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximated GELU, matching GPT-style transformers."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
            a.accumulate_grad(grad * local)

    return _make(out_data, (a,), backward_fn)


def sum_(
    a: Tensor,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward_fn)


def mean(
    a: Tensor,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

def reshape(a: Tensor, shape: Union[int, Tuple[int, ...]]) -> Tensor:
    if isinstance(shape, int):
        shape = (shape,)
    out_data = a.data.reshape(shape)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad.reshape(a.shape))

    return _make(out_data, (a,), backward_fn)


def transpose(a: Tensor, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    out_data = a.data.transpose(axes)

    def backward_fn(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axes is None:
            a.accumulate_grad(grad.transpose())
        else:
            inverse = np.argsort(axes)
            a.accumulate_grad(grad.transpose(inverse))

    return _make(out_data, (a,), backward_fn)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        slicer: list = [slice(None)] * grad.ndim
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer[axis] = slice(start, stop)
                tensor.accumulate_grad(grad[tuple(slicer)])

    return _make(out_data, tuple(tensors), backward_fn)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            grad_a = grad @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(grad_a, a.shape))
        if b.requires_grad:
            grad_b = np.swapaxes(a.data, -1, -2) @ grad
            b.accumulate_grad(_unbroadcast(grad_b, b.shape))

    return _make(out_data, (a, b), backward_fn)


# ----------------------------------------------------------------------
# Normalisation / attention helpers
# ----------------------------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    out_data = expd / expd.sum(axis=axis, keepdims=True)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a.accumulate_grad(out_data * (grad - dot))

    return _make(out_data, (a,), backward_fn)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad - probs * grad.sum(axis=axis, keepdims=True))

    return _make(out_data, (a,), backward_fn)


def layer_norm(a: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine transform."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = (a.data - mu) * inv_std
    out_data = normed * weight.data + bias.data

    def backward_fn(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight.accumulate_grad(
                _unbroadcast(grad * normed, weight.shape)
            )
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(grad, bias.shape))
        if a.requires_grad:
            g = grad * weight.data
            term1 = g
            term2 = g.mean(axis=-1, keepdims=True)
            term3 = normed * (g * normed).mean(axis=-1, keepdims=True)
            a.accumulate_grad(inv_std * (term1 - term2 - term3))

    return _make(out_data, (a, weight, bias), backward_fn)


def cross_entropy_logits(logits: Tensor, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
    """Mean cross-entropy of ``logits`` (N, C) against integer ``targets`` (N,).

    Rows whose target equals ``ignore_index`` contribute nothing to the loss
    or the gradient, mirroring the padding convention in LM training.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    mask = targets != ignore_index
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy_logits received no valid targets")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    safe_targets = np.where(mask, targets, 0)
    picked = log_probs[np.arange(len(targets)), safe_targets]
    loss_val = -(picked * mask).sum() / n_valid

    def backward_fn(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(log_probs)
        g = probs
        g[np.arange(len(targets)), safe_targets] -= 1.0
        g *= (mask / n_valid)[:, None]
        logits.accumulate_grad(g * grad)

    return _make(np.asarray(loss_val), (logits,), backward_fn)


# ----------------------------------------------------------------------
# Indexing ops (embeddings and expert dispatch)
# ----------------------------------------------------------------------

def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def backward_fn(grad: np.ndarray) -> None:
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, indices.reshape(-1), grad.reshape(-1, table.shape[-1]))
            table.accumulate_grad(acc)

    return _make(out_data, (table,), backward_fn)


def take_rows(a: Tensor, row_indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds into the source."""
    row_indices = np.asarray(row_indices)
    out_data = a.data[row_indices]

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, row_indices, grad)
            a.accumulate_grad(acc)

    return _make(out_data, (a,), backward_fn)


def scatter_rows(a: Tensor, row_indices: np.ndarray, n_rows: int) -> Tensor:
    """Place rows of ``a`` at ``row_indices`` in a zero (n_rows, d) tensor.

    Duplicate indices accumulate, making this the adjoint of
    :func:`take_rows`.
    """
    row_indices = np.asarray(row_indices)
    out_data = np.zeros((n_rows,) + a.shape[1:], dtype=a.dtype)
    np.add.at(out_data, row_indices, a.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad[row_indices])

    return _make(out_data, (a,), backward_fn)


def take_elements(a: Tensor, row_indices: np.ndarray, col_indices: np.ndarray) -> Tensor:
    """Gather ``a[row_indices, col_indices]`` from a 2-D tensor."""
    row_indices = np.asarray(row_indices)
    col_indices = np.asarray(col_indices)
    out_data = a.data[row_indices, col_indices]

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, (row_indices, col_indices), grad)
            a.accumulate_grad(acc)

    return _make(out_data, (a,), backward_fn)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep) / keep
    return mul(a, Tensor(mask))


def add_constant(a: Tensor, constant: np.ndarray) -> Tensor:
    """Add a non-differentiable array (e.g. an attention mask)."""
    return add(a, Tensor(constant))


def gradient_check(
    fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> bool:
    """Finite-difference check of analytic gradients.

    ``fn`` must rebuild the scalar loss from scratch each call (so the
    perturbed parameter value is observed).  Used by the property-based
    test-suite to validate every op composition.
    """
    loss = fn()
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            up = fn().item()
            flat[i] = original - eps
            down = fn().item()
            flat[i] = original
            numeric[i] = (up - down) / (2 * eps)
        if not np.allclose(analytic.reshape(-1), numeric, atol=atol, rtol=rtol):
            return False
    return True
