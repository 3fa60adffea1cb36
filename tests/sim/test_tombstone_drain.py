"""Lazy tombstones in the kernel's waiter queues.

A withdrawn :class:`Resource` request or store waiter is flagged in
place and dropped when it reaches the head of its ``deque``.  These
tests pin the cancel edge cases of that skip: a withdrawn head never
receives a slot or an item, a duplicate cancel is a no-op, and the
``queue`` view hides tombstones.
"""

from repro.sim import Environment, Resource, Store


# -- Resource cancel edge cases ------------------------------------------


def test_resource_cancel_then_grant_skips_tombstone():
    env = Environment(sanitize=False)
    resource = Resource(env, capacity=1)
    granted = []

    def holder(env):
        with resource.request() as req:
            yield req
            granted.append("holder")
            yield env.timeout(10.0)

    def cancelled_waiter(env):
        req = resource.request()
        yield env.timeout(1.0)
        req.cancel()  # withdraw while still queued
        req.cancel()  # duplicate cancel must be a no-op
        granted.append("withdrew")

    def patient_waiter(env):
        with resource.request() as req:
            yield req
            granted.append("patient")

    env.process(holder(env))
    env.process(cancelled_waiter(env))
    env.process(patient_waiter(env))
    env.run()
    # The withdrawn request was queued first but never gets the slot.
    assert granted == ["holder", "withdrew", "patient"]
    assert resource.count == 0


def test_resource_duplicate_cancel_after_grant_releases_once():
    env = Environment(sanitize=False)
    resource = Resource(env, capacity=1)
    log = []

    def first(env):
        req = resource.request()
        yield req
        log.append("got")
        req.cancel()
        req.cancel()  # double release must not free a second slot
        log.append("released")

    def second(env):
        with resource.request() as req:
            yield req
            log.append("second")

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert log == ["got", "released", "second"]
    assert resource.count == 0
    assert resource.queue == []


def test_resource_queue_view_hides_tombstones():
    env = Environment(sanitize=False)
    resource = Resource(env, capacity=1)
    holder = resource.request()
    env.run()
    assert holder.triggered
    dead = resource.request()
    live = resource.request()
    dead.cancel()
    assert resource.queue == [live]
    resource.release(holder)
    env.run()
    # The release skips the withdrawn head and grants the next request.
    assert live.triggered
    assert not dead.triggered


# -- store cancel edge cases ---------------------------------------------


def test_store_cancel_get_then_get():
    env = Environment(sanitize=False)
    store = Store(env)
    abandoned = store.get()
    abandoned.cancel()
    abandoned.cancel()  # duplicate cancel is a no-op
    store.put(3)
    store.put(1)
    env.run()
    taken = store.get()
    env.run()
    # The cancelled get never consumed anything; the later get receives
    # the first item put.
    assert not abandoned.triggered
    assert taken.value == 3
    assert len(store) == 1


def test_store_cancelled_put_never_inserts():
    env = Environment(sanitize=False)
    store = Store(env, capacity=1)
    first = store.put("a")
    blocked = store.put("b")
    blocked.cancel()
    blocked.cancel()
    env.run()
    assert first.triggered
    got = store.get()
    env.run()
    assert got.value == "a"
    assert len(store) == 0
    # The withdrawn put's item must not surface later.
    late = store.get()
    store.put("c")
    env.run()
    assert late.value == "c"
