"""The one-agent store the tests build, the view of the only row of a
one-row :class:`Knowledge`, and the state of a store's row."""

from ephemera.knowledge import CapacityPolicy, Knowledge, KnowledgeStore


def one_row_store(innate=(), capacity=None, policy=CapacityPolicy.REJECT_WHEN_FULL,
                  duration=100):
    """A store of one agent with the innate colors ``innate``, under the
    learn settings given."""
    mask = sum(1 << c for c in {*innate})
    return KnowledgeStore(Knowledge([mask], capacity, policy, duration), 0)


def row_state(store):
    """The store's row: its known mask and learned_at per color."""
    return store.known_mask(), store.table.learned_at[store.row].tolist()
