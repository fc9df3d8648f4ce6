"""The gateway's admission, written from docs/DEPLOYMENT.md ("The
multi-tenant gateway", "Admission outcomes"): a table of at most
``max_tenants`` tenants, least recently active first; no cache, counter
or crypto.  Each arrival ends in one outcome:

* an address the resolver does not know: ``dropped:unknown_peer``;
* a full queue sheds it before any crypto: ``dropped:backpressure``
  (a known address that is no tenant has an empty queue);
* else FBSReceive (``fbs_spec.spec_receive``): rejected, or
  ``enqueued``, which alone makes its tenant the most recently active.
  A known address is admitted by its first accepted datagram; a full
  table first evicts its least recently active tenant, losing its
  queued bodies (``evicted``) and reclaiming its flows, master key and
  certificate from the key caches.
"""

from collections import OrderedDict


class GatewaySpec:
    def __init__(self, directory, max_tenants, queue_depth):
        self.directory = directory  # address -> principal name
        self.max_tenants, self.queue_depth = max_tenants, queue_depth
        self.table = OrderedDict()  # address -> (queue, flows), coldest first
        # Evicted addresses none of whose datagrams reached FBSReceive
        # since: the key caches hold nothing of theirs.
        self.reclaimed = set()
        self.dropped = {"backpressure": 0, "evicted": 0, "unknown_peer": 0}
        self.ledger = {"admitted": 0, "evicted": {"capacity": 0},
                       "dropped": self.dropped, "enqueued": 0, "delivered": 0}

    def arrive(self, addr, flow, receive):
        """The outcome of one datagram of ``flow`` from ``addr``."""
        if addr not in self.directory:
            self.dropped["unknown_peer"] += 1
            return "dropped:unknown_peer"
        queue, flows = self.table.get(addr, ([], set()))
        if len(queue) >= self.queue_depth:
            self.dropped["backpressure"] += 1
            return "dropped:backpressure"
        self.reclaimed.discard(addr)
        body, reason = receive(self.directory[addr])
        if reason is not None:
            return f"rejected:{reason}"
        if addr not in self.table:
            if len(self.table) >= self.max_tenants:
                cold, (lost, _) = self.table.popitem(last=False)
                self.reclaimed.add(cold)
                self.ledger["evicted"]["capacity"] += 1
                self.dropped["evicted"] += len(lost)
            self.table[addr] = (queue, flows)
            self.ledger["admitted"] += 1
        self.table.move_to_end(addr)
        queue.append(body)
        flows.add(flow)
        self.ledger["enqueued"] += 1
        return "enqueued"

    def drain(self):
        """Every resident tenant's queued bodies, by name; queues empty."""
        out = {self.directory[a]: q[:] for a, (q, _) in self.table.items()}
        for queue, _ in self.table.values():
            self.ledger["delivered"] += len(queue)
            queue.clear()
        return out
