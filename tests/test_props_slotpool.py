"""Property test: the simulator's free-slot index against a cluster scan.

``_SlotPool`` answers "which node gets the next attempt?" from heaps it
keeps up to date; the definition it must agree with is the scan it
replaced — among live nodes with a free slot, the least busy, smallest
name first, nodes holding the task's input preferred.  Random acquire /
release / kill sequences hold every pick, every slot index and the free
count to that from-scratch reference.  Node names are ``n-0 .. n-39``, so
string order (``n-10`` < ``n-2``) differs from index order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.hadoop.simulator import _SlotPool

#: Uniform draws, not ``st.integers``: its bias toward small values would
#: rarely build the >= 11-node cluster where name order and index order
#: part ways.
NODE_COUNTS = st.sampled_from(range(1, 41))
SLOT_COUNTS = st.sampled_from(range(1, 9))
OPS = st.lists(
    st.tuples(
        # acquire twice as likely as release: clusters fill up, so the
        # full-cluster and one-slot-left states are visited
        st.sampled_from(["acquire", "acquire", "release", "kill"]),
        st.integers(0, 10**6),
        # indices past the cluster size name nodes that do not exist
        st.frozensets(st.sampled_from(range(45)), max_size=4)),
    min_size=30, max_size=150)


def reference_pick(nodes, preferred):
    """The scan ``_SlotPool`` replaced, over the pool's own node states."""
    free_nodes = [node for node in nodes
                  if node.alive and node.slots - node.busy > 0]
    if not free_nodes:
        return None
    local = [node for node in free_nodes if node.name in preferred]
    return min(local or free_nodes, key=lambda node: (node.busy, node.name))


def check_pool(num_nodes, slots, ops):
    names = [f"n-{index}" for index in range(num_nodes)]
    pool = _SlotPool(names, slots, {})
    running = []                      # (node, slot) of every live attempt
    free_slots = {name: set(range(slots)) for name in names}
    for kind, choice, preferred_indices in ops:
        if kind == "acquire":
            preferred = frozenset(f"n-{index}" for index in preferred_indices)
            expected = reference_pick(pool.nodes, preferred)
            if expected is None:
                assert pool.free == 0
                with pytest.raises(SchedulingError):
                    pool.pick(preferred)
                continue
            node = pool.pick(preferred)
            assert node is expected
            slot = pool.acquire(node)
            assert slot == min(free_slots[node.name])
            free_slots[node.name].remove(slot)
            running.append((node, slot))
        elif kind == "release" and running:
            node, slot = running.pop(choice % len(running))
            pool.release(node, slot)
            free_slots[node.name].add(slot)
        elif kind == "kill":
            alive = [node for node in pool.nodes if node.alive]
            if not alive:
                continue
            node = alive[choice % len(alive)]
            pool.kill(node)
            # What the simulator does next: fail the node's attempts and
            # walk its busy count down without releasing anything.
            for entry in [entry for entry in running if entry[0] is node]:
                running.remove(entry)
                node.busy -= 1
        assert pool.free == sum(node.slots - node.busy
                                for node in pool.nodes if node.alive)
        assert all(len(heap) <= num_nodes for heap in pool.levels)


@settings(max_examples=50, deadline=None)
@given(NODE_COUNTS, SLOT_COUNTS, OPS)
def test_slot_pool_matches_cluster_scan(num_nodes, slots, ops):
    check_pool(num_nodes, slots, ops)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(NODE_COUNTS, SLOT_COUNTS, OPS)
def test_slot_pool_matches_cluster_scan_many(num_nodes, slots, ops):
    check_pool(num_nodes, slots, ops)
