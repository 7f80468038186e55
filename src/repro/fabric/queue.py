"""The persistent, multi-process work queue of the solve fabric.

Every piece of state lives on disk under one *fabric root*, so any number of
worker processes — on one machine or across hosts sharing the directory —
coordinate without a broker::

    <fabric_root>/tasks/<task_id>.json     # task records (atomic writes)
    <fabric_root>/leases/<task_id>.lease   # O_EXCL claim arbitration
    <fabric_root>/inflight/<fingerprint>   # single-flight leader index
    <fabric_root>/journal.ndjson           # append-only transition audit

Correctness recipe
------------------
* **Atomic claim.**  A worker claims a task by exclusively creating its
  lease file (``O_EXCL``); the filesystem arbitrates, losers move on.  The
  lease body names the owner, a per-claim ``token`` and a ``deadline``.
* **Heartbeat.**  The owner renews the lease (atomic rewrite) well inside
  its TTL.  A renewal that finds the token replaced knows the lease was
  reclaimed and reports it lost — the worker stops claiming authority over
  the task (its store writes are harmless: content-addressed, identical).
* **Reclaim.**  Anyone may sweep expired leases: the lease file is atomically
  *renamed* to a per-sweeper tombstone (so two sweepers cannot both win),
  re-checked for expiry, then the task returns to ``pending`` with
  ``attempts`` incremented — or to ``dead`` (dead-letter) past
  the record's ``max_attempts``.  An unexpired steal is restored.
* **Crash-safe journal.**  Transitions append single-``write`` NDJSON lines
  (:func:`repro.io_utils.append_ndjson`); a writer killed mid-append leaves
  at most one torn tail line, which readers skip.

Single-flight and priority
--------------------------
``enqueue`` arbitrates identical-spec dedup *through the queue*: the first
task for a fingerprint exclusively creates ``inflight/<fingerprint>`` and
becomes the leader; later enqueues (any tenant — the index is keyed by
content, not namespace) become followers that stay unclaimable until their
leader is terminal, then complete via the shared store without executing.
``claim`` applies the same lane rule as the service's in-process queue
(:func:`repro.api.service.pick_lane`): interactive tasks overtake batch, but
one batch task is served per ``INTERACTIVE_WEIGHT`` interactive claims so
sweeps never starve — so ``submit(priority=...)`` means the same thing on
both backends.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.api.service import pick_lane
from repro.io_utils import append_ndjson, atomic_write_json, read_ndjson

#: Seconds a claim stays valid without a heartbeat renewal.
DEFAULT_LEASE_TTL = 30.0

#: Claims per task before it is dead-lettered (first attempt included).
#: Each task record carries the value it was enqueued with.
MAX_ATTEMPTS = 3


class TaskState:
    """String states of a task record (a str enum without the import)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEAD = "dead"

    TERMINAL = (DONE, FAILED, CANCELLED, DEAD)


@dataclass
class Claim:
    """One successfully claimed task: the record plus the lease handle."""

    task: dict
    worker_id: str
    token: str
    lease_path: Path

    @property
    def task_id(self) -> str:
        return self.task["task_id"]


class WorkQueue:
    """One fabric root's task queue.  Instances are cheap; state is on disk.

    Parameters
    ----------
    root:
        The fabric root directory (created on demand).
    lease_ttl:
        Seconds a claim survives without renewal before reclaim.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.root = Path(root)
        self.lease_ttl = lease_ttl
        self._alloc_lock = threading.Lock()
        self._next_ordinal: int | None = None
        self._streak = 0  # consecutive interactive claims (per instance)

    # ----------------------------------------------------------------- paths
    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def inflight_dir(self) -> Path:
        return self.root / "inflight"

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.ndjson"

    def task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.json"

    def lease_path(self, task_id: str) -> Path:
        return self.leases_dir / f"{task_id}.lease"

    # --------------------------------------------------------------- journal
    def journal(self, event: str, task_id: str, **fields) -> None:
        append_ndjson(
            self.journal_path,
            {"ts": time.time(), "event": event, "task": task_id, **fields},
        )

    def read_journal(self) -> list[dict]:
        """Every journal line (torn tail skipped), oldest first."""
        return read_ndjson(self.journal_path)

    # ----------------------------------------------------------------- tasks
    def load_task(self, task_id: str) -> dict | None:
        try:
            record = json.loads(self.task_path(task_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) and record.get("task_id") else None

    def _write_task(self, record: dict) -> None:
        atomic_write_json(self.task_path(record["task_id"]), record)

    def tasks(self) -> list[dict]:
        """Every readable task record, in task-id (= enqueue) order."""
        if not self.tasks_dir.is_dir():
            return []
        records = []
        for path in sorted(self.tasks_dir.glob("task-*.json")):
            record = self.load_task(path.stem)
            if record is not None:
                records.append(record)
        return records

    def _allocate_task_id(self) -> str:
        """Mint the next global task ordinal (``O_EXCL`` reserved)."""
        with self._alloc_lock:
            self.tasks_dir.mkdir(parents=True, exist_ok=True)
            if self._next_ordinal is None:
                highest = 0
                for path in self.tasks_dir.glob("task-*.json"):
                    digits = path.name[len("task-") : len("task-") + 6]
                    if digits.isdigit():
                        highest = max(highest, int(digits))
                self._next_ordinal = highest + 1
            index = self._next_ordinal
            while True:
                task_id = f"task-{index:06d}"
                try:
                    with open(self.task_path(task_id), "x") as handle:
                        handle.write("{}\n")
                except FileExistsError:
                    index += 1
                    continue
                self._next_ordinal = index + 1
                return task_id

    # --------------------------------------------------------------- enqueue
    def enqueue(
        self,
        spec_dict: dict,
        fingerprint: str,
        *,
        job_id: str,
        store_root: str,
        results_root: str | None = None,
        job_prefix: str = "",
        tenant: str = "",
        priority: str = "interactive",
    ) -> dict:
        """Persist one task and return its record.

        ``spec_dict`` is the serialized :class:`~repro.api.specs.RunSpec`;
        ``store_root``/``results_root``/``job_prefix`` tell the executing
        worker where the job's records and the shared envelope tier live.
        Identical fingerprints are single-flighted: the first in-flight task
        leads, later ones ride as followers (see module docstring).
        """
        task_id = self._allocate_task_id()
        leader = self._single_flight_leader(fingerprint, task_id)
        record = {
            "task_id": task_id,
            "state": TaskState.PENDING,
            "job_id": job_id,
            "tenant": tenant,
            "priority": priority if priority == "batch" else "interactive",
            "spec": spec_dict,
            "fingerprint": fingerprint,
            "store_root": str(store_root),
            "results_root": None if results_root is None else str(results_root),
            "job_prefix": job_prefix,
            "attempts": 0,
            "max_attempts": MAX_ATTEMPTS,
            "leader": leader,
            "error": None,
            "store_hit": False,
            "enqueued_at": time.time(),
        }
        self._write_task(record)
        self.journal(
            "enqueued",
            task_id,
            job_id=job_id,
            tenant=tenant,
            priority=record["priority"],
            fingerprint=fingerprint,
            leader=leader,
        )
        return record

    def _single_flight_leader(self, fingerprint: str, task_id: str) -> str | None:
        """Register ``task_id`` as the fingerprint's leader, or name its leader.

        The in-flight index entry is created ``O_EXCL``; when creation loses,
        the existing entry names the leader.  A leader settling (removing the
        entry) between our failed create and the read just means the flight
        is over — retry, we become the new leader.
        """
        self.inflight_dir.mkdir(parents=True, exist_ok=True)
        path = self.inflight_dir / fingerprint
        while True:
            try:
                with open(path, "x") as handle:
                    handle.write(task_id + "\n")
                return None
            except FileExistsError:
                try:
                    leader = path.read_text().strip()
                except FileNotFoundError:
                    continue  # the flight settled under us; try to lead
                if leader and leader != task_id:
                    return leader
                return None

    def _settle_flight(self, task: dict) -> None:
        """Drop the in-flight index entry once its leader turns terminal."""
        if task.get("leader") is not None:
            return  # followers never own the index entry
        path = self.inflight_dir / task["fingerprint"]
        try:
            if path.read_text().strip() == task["task_id"]:
                path.unlink(missing_ok=True)
        except FileNotFoundError:
            pass

    # ----------------------------------------------------------------- claim
    def claim(self, worker_id: str) -> Claim | None:
        """Claim the next eligible task for ``worker_id`` (``None`` when idle).

        Scans pending tasks in enqueue order, two lanes picked by
        :func:`~repro.api.service.pick_lane`.  Followers whose leader is
        still in flight are skipped — once the leader is terminal they
        become claimable and complete via the shared store.  Claiming is an ``O_EXCL`` lease-file
        creation, so concurrent workers never double-claim.
        """
        interactive, batch = [], []
        for record in self.tasks():
            if record["state"] != TaskState.PENDING:
                continue
            if not self._follower_claimable(record):
                continue
            (batch if record["priority"] == "batch" else interactive).append(record)
        while interactive or batch:
            lane, self._streak = pick_lane(interactive, batch, self._streak)
            claim = self._try_claim(lane.pop(0), worker_id)
            if claim is not None:
                return claim
        return None

    def _follower_claimable(self, record: dict) -> bool:
        leader_id = record.get("leader")
        if leader_id is None:
            return True
        leader = self.load_task(leader_id)
        if leader is None:
            return True  # unreadable leader must not strand followers
        return leader["state"] in TaskState.TERMINAL

    def _try_claim(self, record: dict, worker_id: str) -> Claim | None:
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        task_id = record["task_id"]
        lease_path = self.lease_path(task_id)
        token = uuid.uuid4().hex
        lease = {
            "worker": worker_id,
            "token": token,
            "deadline": time.time() + self.lease_ttl,
            "attempt": record["attempts"] + 1,
        }
        try:
            with open(lease_path, "x") as handle:
                handle.write(json.dumps(lease) + "\n")
        except FileExistsError:
            return None  # someone else holds (or is cancelling) it
        # Re-read the record *after* winning the lease: a cancel or reclaim
        # that landed before our O_EXCL would have changed it.
        current = self.load_task(task_id)
        if current is None or current["state"] != TaskState.PENDING:
            lease_path.unlink(missing_ok=True)
            return None
        current["state"] = TaskState.RUNNING
        current["attempts"] = current["attempts"] + 1
        current["worker"] = worker_id
        self._write_task(current)
        self.journal(
            "claimed",
            task_id,
            worker=worker_id,
            attempt=current["attempts"],
            job_id=current["job_id"],
        )
        return Claim(task=current, worker_id=worker_id, token=token, lease_path=lease_path)

    # ------------------------------------------------------------- heartbeat
    def heartbeat(self, claim: Claim) -> bool:
        """Renew ``claim``'s lease; ``False`` means the lease was lost.

        A lost lease (reclaimed by a sweeper that considered this worker
        dead) demotes the claim: the worker must stop reporting completion
        for it.  Renewal is a read-check-rewrite; the token check prevents
        resurrecting a lease someone else already owns.
        """
        try:
            lease = json.loads(claim.lease_path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        if lease.get("token") != claim.token:
            return False
        lease["deadline"] = time.time() + self.lease_ttl
        atomic_write_json(claim.lease_path, lease, indent=None)
        return True

    # --------------------------------------------------------------- reclaim
    def reclaim_expired(self, sweeper: str = "sweeper") -> list[str]:
        """Return expired-lease tasks to ``pending`` (or dead-letter them).

        Anyone may sweep.  The lease is atomically renamed to a per-sweeper
        tombstone first, so two concurrent sweepers cannot both reclaim one
        task; an unexpired lease grabbed by mistake is restored untouched.
        Returns the reclaimed task ids (dead-lettered ones included).
        """
        if not self.leases_dir.is_dir():
            return []
        reclaimed = []
        now = time.time()
        for lease_path in list(self.leases_dir.glob("*.lease")):
            task_id = lease_path.stem
            try:
                lease = json.loads(lease_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # torn lease mid-write; next sweep sees it whole
            task = self.load_task(task_id)
            if task is not None and task["state"] in TaskState.TERMINAL:
                lease_path.unlink(missing_ok=True)  # stale lease of a done task
                continue
            if lease.get("deadline", 0) > now:
                continue
            tomb = lease_path.with_suffix(f".reclaim.{os.getpid()}.{id(self)}")
            try:
                os.replace(lease_path, tomb)
            except FileNotFoundError:
                continue  # another sweeper won
            try:
                current = json.loads(tomb.read_text())
            except (OSError, json.JSONDecodeError):
                current = lease
            if current.get("deadline", 0) > now:
                os.replace(tomb, lease_path)  # renewed under us; restore
                continue
            tomb.unlink(missing_ok=True)
            if task is None:
                continue
            if task["attempts"] >= task["max_attempts"]:
                task["state"] = TaskState.DEAD
                task["error"] = {
                    "type": "LeaseExpired",
                    "message": (
                        f"worker {current.get('worker')!r} lease expired after "
                        f"attempt {task['attempts']}/{task['max_attempts']}"
                    ),
                }
                self._write_task(task)
                self._settle_flight(task)
                self.journal(
                    "dead", task_id, worker=current.get("worker"),
                    attempts=task["attempts"], job_id=task["job_id"],
                )
            else:
                task["state"] = TaskState.PENDING
                task["worker"] = None
                self._write_task(task)
                self.journal(
                    "reclaimed", task_id, worker=current.get("worker"),
                    attempts=task["attempts"], sweeper=sweeper, job_id=task["job_id"],
                )
            reclaimed.append(task_id)
        return reclaimed

    # ------------------------------------------------------------ completion
    def _finish(self, claim: Claim, state: str, **fields) -> bool:
        """Move a claimed task to a terminal state if the lease still holds."""
        if not self.heartbeat(claim):  # re-validates ownership atomically
            self.journal("lost", claim.task_id, worker=claim.worker_id, state=state)
            return False
        task = self.load_task(claim.task_id)
        if task is None or task["state"] != TaskState.RUNNING:
            claim.lease_path.unlink(missing_ok=True)
            return False
        task["state"] = state
        task.update(fields)
        task["finished_at"] = time.time()
        self._write_task(task)
        self._settle_flight(task)
        claim.lease_path.unlink(missing_ok=True)
        return True

    def complete(self, claim: Claim, *, store_hit: bool = False) -> bool:
        """Mark a claimed task done; ``False`` when the lease was lost."""
        done = self._finish(claim, TaskState.DONE, store_hit=store_hit)
        if done:
            self.journal(
                "completed",
                claim.task_id,
                worker=claim.worker_id,
                store_hit=store_hit,
                job_id=claim.task["job_id"],
            )
        return done

    def fail(self, claim: Claim, error: BaseException | dict) -> bool:
        """Mark a claimed task failed (a real execution error, not a crash)."""
        if isinstance(error, BaseException):
            error = {"type": type(error).__name__, "message": str(error)}
        failed = self._finish(claim, TaskState.FAILED, error=error)
        if failed:
            self.journal(
                "failed",
                claim.task_id,
                worker=claim.worker_id,
                error=error.get("type"),
                job_id=claim.task["job_id"],
            )
        return failed

    # ---------------------------------------------------------- cancellation
    def cancel(self, task_id: str) -> bool:
        """Cancel a still-pending task; ``False`` once it is claimed/terminal.

        Cancellation *claims the lease* (``O_EXCL``, like a worker) so it can
        never race an executing worker: either the cancel wins the lease and
        the task is dead before any worker sees it, or a worker holds the
        lease and the cancel reports ``False``.
        """
        task = self.load_task(task_id)
        if task is None or task["state"] != TaskState.PENDING:
            return False
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        lease_path = self.lease_path(task_id)
        try:
            with open(lease_path, "x") as handle:
                handle.write(json.dumps({"worker": "__cancel__", "deadline": 0}) + "\n")
        except FileExistsError:
            return False
        try:
            task = self.load_task(task_id)
            if task is None or task["state"] != TaskState.PENDING:
                return False
            task["state"] = TaskState.CANCELLED
            self._write_task(task)
            self._settle_flight(task)
            self.journal("cancelled", task_id, job_id=task["job_id"])
            return True
        finally:
            lease_path.unlink(missing_ok=True)

    # ------------------------------------------------------------- summaries
    def stats(self) -> dict:
        """Counts by state plus lane depths (one scan; JSON-ready)."""
        by_state: dict[str, int] = {}
        lanes = {"interactive": 0, "batch": 0}
        for record in self.tasks():
            by_state[record["state"]] = by_state.get(record["state"], 0) + 1
            if record["state"] == TaskState.PENDING:
                lanes[record["priority"]] += 1
        return {
            "root": str(self.root),
            "by_state": dict(sorted(by_state.items())),
            "pending_by_lane": lanes,
            "leases": sum(1 for _ in self.leases_dir.glob("*.lease"))
            if self.leases_dir.is_dir()
            else 0,
        }
