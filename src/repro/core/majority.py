"""Per-address majority voting (§II of the paper).

    "Ensuring that all of the servers in a returned DNS query are benign
    can be performed via a classic majority-vote on each of the returned
    addresses, e.g., the majority DNS resolver only includes an address
    in the final response, if it is given by a majority of the DoH
    resolvers."

This is stronger than Algorithm 1's fraction bound — the output contains
*only* addresses vouched for by a quorum — but it requires resolvers to
see overlapping answer sets, so it composes poorly with heavy rotation
(a trade-off exercised by experiment E8). Chronos does not need it; the
backward-compatible front-end can use it for applications that do.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from repro.core.errors import ConfigurationError
from repro.netsim.address import IPAddress


def majority_vote(answer_lists: Dict[str, Sequence[IPAddress]]
                  ) -> List[IPAddress]:
    """Return the addresses included by a strict majority
    ``N // 2 + 1`` of the ``N`` resolvers *consulted* (not of those
    that answered — silent resolvers effectively vote against).

    :param answer_lists: per-resolver address lists. An address counts
        once per resolver no matter how often that resolver repeated it.
    :returns: addresses sorted by (votes desc, address) for determinism.
    """
    if not answer_lists:
        raise ConfigurationError("no answer lists to vote on")
    quorum = len(answer_lists) // 2 + 1
    votes: Counter = Counter()
    for addresses in answer_lists.values():
        for address in set(addresses):
            votes[address] += 1
    winners = [(count, address) for address, count in votes.items()
               if count >= quorum]
    winners.sort(key=lambda item: (-item[0], str(item[1])))
    return [address for _, address in winners]

