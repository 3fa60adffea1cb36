"""Property-based tests for Store waiter dispatch.

Interleaves puts and gets with cancellations of already-triggered and
still-pending gets, then checks the store against a straightforward
reference model: every put stores its item at once, FIFO order is
preserved, no item is ever lost or duplicated, a cancelled get never
takes an item, and cancelling a triggered get is a no-op.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Store


class ModelStore:
    """Reference implementation of Store's dispatch semantics."""

    def __init__(self):
        self.items = []
        self.pending_gets = []  # [op_id]
        self.stored = []  # values in storage order
        self.received = {}  # get op_id -> value

    def dispatch(self):
        while self.pending_gets and self.items:
            op_id = self.pending_gets.pop(0)
            self.received[op_id] = self.items.pop(0)

    def put(self, value):
        self.items.append(value)
        self.stored.append(value)
        self.dispatch()

    def get(self, op_id):
        self.pending_gets.append(op_id)
        self.dispatch()

    def cancel(self, op_id):
        if op_id in self.pending_gets:
            self.pending_gets.remove(op_id)


ops_strategy = st.lists(
    st.one_of(
        st.just(("put",)),
        st.just(("get",)),
        # Cancel the op issued this many steps back (may be triggered
        # already, may be pending, may not exist — all must be safe).
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10)),
    ),
    min_size=1,
    max_size=60,
)


@given(ops=ops_strategy)
@settings(max_examples=200)
def test_store_matches_reference_model(ops):
    env = Environment()
    store = Store(env)
    model = ModelStore()

    events = []  # (op_id, kind, event) in issue order
    next_value = 0

    for op in ops:
        if op[0] == "put":
            op_id = len(events)
            event = store.put(next_value)
            events.append((op_id, "put", event))
            model.put(next_value)
            next_value += 1
        elif op[0] == "get":
            op_id = len(events)
            event = store.get()
            events.append((op_id, "get", event))
            model.get(op_id)
        else:
            back = op[1]
            if back < len(events):
                op_id, kind, event = events[-1 - back]
                if not event.triggered:
                    event.cancel()
                    model.cancel(op_id)

    # Triggered events must match the model exactly.
    for op_id, kind, event in events:
        if kind == "put":
            assert event.triggered
        else:
            if op_id in model.received:
                assert event.triggered
                assert event.value == model.received[op_id]
            else:
                assert not event.triggered

    # FIFO: values received by gets, in issue order of the gets, are a
    # prefix of the stored sequence.
    received_in_order = [
        event.value
        for _, kind, event in events
        if kind == "get" and event.triggered
    ]
    assert received_in_order == model.stored[: len(received_in_order)]

    # No lost or duplicated items: everything stored is either received
    # or still buffered, in order.
    assert received_in_order + list(store.items) == model.stored
    assert list(store.items) == model.items


@given(
    n_gets=st.integers(min_value=1, max_value=20),
    cancel_idx=st.integers(min_value=0, max_value=19),
)
@settings(max_examples=100)
def test_cancelled_get_never_steals_an_item(n_gets, cancel_idx):
    """A cancelled waiter is skipped; later waiters get the items."""
    env = Environment()
    store = Store(env)
    gets = [store.get() for _ in range(n_gets)]
    victim = gets[min(cancel_idx, n_gets - 1)]
    victim.cancel()
    for i in range(n_gets):
        store.put(i)
    env.run()
    survivors = [g for g in gets if g is not victim]
    assert not victim.triggered
    assert [g.value for g in survivors] == list(range(len(survivors)))


@given(count=st.integers(min_value=1, max_value=3))
@settings(max_examples=50)
def test_cancel_after_trigger_is_noop(count):
    env = Environment()
    store = Store(env)
    for i in range(count):
        store.put(i)
    get = store.get()
    assert get.triggered
    get.cancel()  # must not give the item back
    env.run()
    assert get.value == 0
    assert list(store.items) == list(range(1, count))
