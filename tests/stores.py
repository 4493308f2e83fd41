"""The one-agent store the tests build: the view of the only row of a
one-row :class:`Knowledge`."""

from ephemera.knowledge import CapacityPolicy, Knowledge, KnowledgeStore


def one_row_store(innate=(), capacity=None, policy=CapacityPolicy.REJECT_WHEN_FULL,
                  duration=100):
    """A store of one agent with the innate colors ``innate``, under the
    learn settings given."""
    mask = sum(1 << c for c in {*innate})
    return KnowledgeStore(Knowledge([mask], capacity, policy, duration), 0)
