"""WAL frames relayed down the m-ary member tree.

The paper's transparency goal (§4): "From different perspectives, all
database users look at the same database, which is stored across many
networked stations."  Document-layer rows (scripts, implementations,
test records — all small) reach every member station, while BLOBs stay
where they are and move only through the pre-broadcast / watermark
machinery.

:class:`TreeRelay` does this with the package's one log.  The master
database journals to a framed :class:`~repro.rdb.wal.Journal` that a
:class:`~repro.replication.shipper.WalShipper` streams to the root's
children.  Every other member is a
:class:`~repro.replication.recoverer.Recoverer` subscribed to its tree
parent, and every interior member serves its own journal — a byte
prefix of the master's — to its children with a shipper of its own.
Only committed transactions are journaled, so rolled-back work never
ships; a member that missed frames resumes from its applied LSN, or
takes a snapshot when its position was checkpointed away, like any
follower.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.distribution.mtree import MAryTree
from repro.net.transport import Network
from repro.rdb import Database
from repro.rdb.wal import Journal
from repro.replication.recoverer import Recoverer
from repro.replication.shipper import WalShipper

__all__ = ["TreeRelay"]


class TreeRelay:
    """Replicates one master database to every member of an m-ary tree.

    Position 1 of ``tree`` is the master's station; the relay attaches
    the master's journal under ``data_dir / <root>``.  Every other
    member keeps its snapshot and journal under ``data_dir / <station>``
    and starts subscribed to its parent.
    """

    def __init__(
        self,
        network: Network,
        tree: MAryTree,
        master: Database,
        data_dir: str | os.PathLike[str],
    ) -> None:
        self.network = network
        self.tree = tree
        self.master = master
        self.data_dir = Path(data_dir)
        self.root = tree.name_of(1)
        self.journal = Journal(self.data_dir / self.root / "primary.wal")
        self.snapshot_path = self.data_dir / self.root / "primary.snapshot"
        master.attach_journal(self.journal)
        if any(master.count(name) for name in master.table_names()):
            # Rows committed before the relay attached are in no frame:
            # open the log above LSN 0 so every first subscription takes
            # a snapshot that holds them.
            self.journal.checkpoint(1)
        self.shippers: dict[str, WalShipper] = {
            self.root: WalShipper(
                network, self.root, self.journal,
                snapshot_path=self.snapshot_path,
                snapshot_fn=lambda: master.snapshot(str(self.snapshot_path)),
            ),
        }
        self.followers: dict[str, Recoverer] = {}
        #: station -> sim time of its latest applied frame
        self.last_applied_at: dict[str, float] = {}
        self._relays_due: set[str] = set()
        for name in tree.names[1:]:
            self._start(name)

    def _start(self, name: str) -> Recoverer:
        follower = Recoverer(
            self.network, name, self.tree.parent_name(name),
            self.master.schemas(), self.data_dir / name,
            on_apply=lambda _frame: self._applied(name),
            on_rebuild=lambda _db: self._rebuilt(name),
        )
        self.followers[name] = follower
        follower.start()
        if self.tree.children_names(name):
            self.shippers[name] = WalShipper(
                self.network, name, follower.journal,
                snapshot_path=follower.snapshot_path,
            )
        return follower

    def _follower(self, station: str) -> Recoverer:
        try:
            return self.followers[station]
        except KeyError:
            raise LookupError(
                f"{station!r} is not a follower member of {self.tree!r}"
            ) from None

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Push everything committed since the last flush to the root's
        children; returns the number of frames put on the wire."""
        return self.shippers[self.root].pump()

    def _applied(self, name: str) -> None:
        self.last_applied_at[name] = self.network.sim.now
        self._relay(name)

    def _rebuilt(self, name: str) -> None:
        shipper = self.shippers.get(name)
        if shipper is not None:
            # A snapshot install replaced the member's journal.
            shipper.journal = self.followers[name].journal
            self._relay(name)

    def _relay(self, name: str) -> None:
        """Pump ``name``'s children once per applied batch: one deferred
        event absorbs every frame the batch applies."""
        if name in self.shippers and name not in self._relays_due:
            self._relays_due.add(name)
            self.network.sim.schedule(0.0, self._pump, name)

    def _pump(self, name: str) -> None:
        self._relays_due.discard(name)
        shipper = self.shippers.get(name)
        if shipper is not None:
            shipper.pump()

    # ------------------------------------------------------------------
    # Recovery and consistency
    # ------------------------------------------------------------------
    def restart(self, station: str) -> Recoverer:
        """Restart ``station`` from its own data directory.

        A fresh :class:`Recoverer` recovers what the station's snapshot
        and journal hold, then resubscribes to its parent; the station's
        children resubscribe to it.  Returns the new follower.
        """
        self._follower(station).stop()
        shipper = self.shippers.pop(station, None)
        if shipper is not None:
            shipper.close()
        follower = self._start(station)
        for child in self.tree.children_names(station):
            self.followers[child].retarget(station)
        return follower

    def lag(self, station: str) -> int:
        """Frames the master has journaled that ``station`` has not
        applied."""
        return self.journal.last_lsn - self._follower(station).applied_lsn

    def converged(self) -> bool:
        """True when every member has applied the master's whole log."""
        return all(self.lag(name) == 0 for name in self.followers)

    def close(self) -> None:
        """Detach every member and close every journal."""
        for follower in self.followers.values():
            follower.stop()
        for shipper in self.shippers.values():
            shipper.close()
        self.journal.close()
