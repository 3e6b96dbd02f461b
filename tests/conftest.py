import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nlhide import (
    Ensemble,
    MultiPartyOperator,
    ParityBlockParams,
    PartySet,
    SlotStructure,
    ghz_complement_ensemble,
    parity_block_ensemble,
)
from nlhide import discrimination, ensembles


@pytest.fixture
def entry_passes(monkeypatch):
    """Counters of the work that forms an ensemble's entries record, wherever it runs:
    the matrices that ``_entry_record`` masks, one pass each, and the
    ``_entry_hermiticity`` checks it makes."""
    tensor = importlib.import_module("nlhide.tensor")  # the package binds the function
    masked, checked = [], []
    real_record, real_check = tensor._entry_record, tensor._entry_hermiticity

    def record(stack):
        masked.append(len(stack))
        return real_record(stack)

    for module in (ensembles, discrimination):
        monkeypatch.setattr(module, "_entry_record", record)
    monkeypatch.setattr(tensor, "_entry_hermiticity",
                        lambda *args: checked.append(1) or real_check(*args))
    return masked, checked


@pytest.fixture(scope="session")
def ghz22():
    return ghz_complement_ensemble(2, 2)


@pytest.fixture(scope="session")
def ghz23():
    return ghz_complement_ensemble(2, 3)


@pytest.fixture(scope="session")
def ghz32():
    return ghz_complement_ensemble(3, 2)


@pytest.fixture(scope="session")
def ghz33():
    return ghz_complement_ensemble(3, 3)


@pytest.fixture(scope="session")
def parity2222():
    return parity_block_ensemble(ParityBlockParams(2, 2, 2, 2))


@pytest.fixture(scope="session")
def parity2212():
    return parity_block_ensemble(ParityBlockParams(2, 2, 1, 2))


@pytest.fixture(scope="session")
def eleven_parties():
    # One qubit for A1 and trivial slots for A2..A11: past the partition guard of 10.
    slots = SlotStructure((2,) + (1,) * 10, tuple(f"A{k}" for k in range(1, 12)))
    states = tuple(
        MultiPartyOperator(np.diag(d).astype(complex), slots) for d in ([1.0, 0.0], [0.0, 1.0])
    )
    return Ensemble(PartySet.of_size(11), (0.5, 0.5), states)


@pytest.fixture(scope="session")
def colliding_labels():
    """GHZ-complement (2,3) with a fourth qubit in |0> on each state, the four slots
    owned by parties ``a, b, c, bc``: the cuts ``a,b,c | bc`` (q = 1) and
    ``a,bc | b,c`` (q = 0.875) are both named ``abc|bc``."""
    base = ghz_complement_ensemble(2, 3)
    slots = SlotStructure((2, 2, 2, 2), ("a", "b", "c", "bc"))
    zero = np.diag([1.0, 0.0])
    states = tuple(MultiPartyOperator(np.kron(s.matrix, zero), slots) for s in base.states)
    return Ensemble(PartySet(("a", "b", "c", "bc")), base.probs, states)
