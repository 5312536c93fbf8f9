"""Shared tiny fixtures for the test suite and benchmarks.

Lives inside the package (rather than a ``conftest.py``) so both
``tests/`` and ``benchmarks/`` can import it without relying on pytest's
conftest module shadowing — ``from conftest import TINY`` broke whenever
another directory's conftest loaded first.
"""

from __future__ import annotations

from .models import Adam, MoEModelConfig, MoETransformerLM

# The smallest model exercising every subsystem: 2 MoE layers, 4 experts.
TINY = MoEModelConfig(
    vocab_size=32,
    max_seq_len=12,
    dim=16,
    num_layers=2,
    num_heads=2,
    num_experts=4,
    top_k=2,
    seed=0,
)


def tiny_model(config: MoEModelConfig = TINY) -> MoETransformerLM:
    return MoETransformerLM(config)


def tiny_model_and_optimizer(config: MoEModelConfig = TINY, lr: float = 1e-2):
    model = MoETransformerLM(config)
    return model, Adam(model.named_parameters(), lr=lr)


def train_steps(model, optimizer, corpus, iterations, start=1, batch_size=2):
    """Run a few deterministic training steps; returns final loss."""
    loss_value = float("nan")
    for iteration in range(start, start + iterations):
        tokens, targets = corpus.batch(iteration, batch_size)
        optimizer.zero_grad()
        loss = model.loss(tokens, targets)
        loss.backward()
        optimizer.step()
        loss_value = loss.item()
    return loss_value


def snapshot_params(model) -> dict:
    return {name: param.data.copy() for name, param in model.named_parameters()}


def params_equal(a: dict, b: dict) -> bool:
    import numpy as np

    return all(np.array_equal(a[name], b[name]) for name in a)


def once(benchmark, fn):
    """Run ``fn`` exactly once under the pytest-benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# Seeded random-case generation for property-based tests (no extra deps).
#
# The codec / serializer / manifest / reshard round-trip suites draw
# arbitrary nested state dicts from these generators; cases are a pure
# function of the seed, so a failure reproduces from its seed alone.
# ---------------------------------------------------------------------------

#: Dtypes the serializer must round-trip bit-exactly.
ARRAY_DTYPES = (
    "float64", "float32", "float16",
    "int64", "int32", "int8", "uint8", "bool",
)

#: Characters that stress key encoding (path separators, punctuation,
#: non-ASCII, spaces).
_KEY_ALPHABET = "abzAZ09._-/:%+ é漢"


def seeded_rng(seed: int):
    """A numpy Generator whose stream is fixed by ``seed``."""
    import numpy as np

    return np.random.default_rng(seed)


def random_array(rng, max_dims: int = 3, max_dim: int = 5):
    """An arbitrary array: random dtype, shape (possibly 0-d or empty)."""
    import numpy as np

    dtype = np.dtype(ARRAY_DTYPES[int(rng.integers(len(ARRAY_DTYPES)))])
    ndim = int(rng.integers(0, max_dims + 1))
    shape = tuple(int(rng.integers(0, max_dim + 1)) for _ in range(ndim))
    if dtype.kind == "f":
        values = rng.standard_normal(shape)
    elif dtype.kind == "b":
        values = rng.integers(0, 2, size=shape)
    else:
        info = np.iinfo(dtype)
        values = rng.integers(max(info.min, -1000), min(info.max, 1000) + 1, size=shape)
    return np.asarray(values).astype(dtype)


def random_field_name(rng, max_len: int = 12) -> str:
    """A field/key fragment drawn from the escaping-hostile alphabet."""
    length = int(rng.integers(1, max_len + 1))
    return "".join(
        _KEY_ALPHABET[int(rng.integers(len(_KEY_ALPHABET)))] for _ in range(length)
    )


def random_entry(rng, max_fields: int = 5) -> dict:
    """A checkpoint entry: field-name -> array mapping."""
    entry = {}
    for _ in range(int(rng.integers(1, max_fields + 1))):
        entry[random_field_name(rng)] = random_array(rng)
    return entry


def random_nested_state(rng, max_depth: int = 3, max_children: int = 4) -> dict:
    """An arbitrary nested state dict: str keys, dict or ndarray values."""
    state = {}
    for _ in range(int(rng.integers(1, max_children + 1))):
        name = random_field_name(rng)
        if max_depth > 1 and rng.random() < 0.4:
            state[name] = random_nested_state(rng, max_depth - 1, max_children)
        else:
            state[name] = random_array(rng)
    return state


def flatten_state(state: dict, sep: str = "\x1f", prefix: str = "") -> dict:
    """Flatten a nested state dict to path -> array.

    The separator is an unprintable sentinel so arbitrary key text (which
    may contain ``/`` or ``.``) round-trips unambiguously.
    """
    flat = {}
    for name, value in state.items():
        path = prefix + sep + name if prefix else name
        if isinstance(value, dict):
            flat.update(flatten_state(value, sep=sep, prefix=path))
        else:
            flat[path] = value
    return flat


def unflatten_state(flat: dict, sep: str = "\x1f") -> dict:
    """Invert :func:`flatten_state`."""
    state: dict = {}
    for path, value in flat.items():
        parts = path.split(sep)
        node = state
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return state


def states_bit_equal(a: dict, b: dict) -> bool:
    """Deep equality: same tree, same dtypes/shapes, same bytes."""
    import numpy as np

    if isinstance(a, dict) != isinstance(b, dict):
        return False
    if isinstance(a, dict):
        if set(a) != set(b):
            return False
        return all(states_bit_equal(a[key], b[key]) for key in a)
    left, right = np.asarray(a), np.asarray(b)
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )
