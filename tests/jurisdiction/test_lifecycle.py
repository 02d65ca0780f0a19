"""The declared object lifecycle at a magistrate (sections 3.1, 3.8, 4.1.4).

``LIFECYCLE`` is the whole life of a managed object: every (state,
request) pair either makes the table's move or raises the table's
refusal.  One transition is in flight per object: a request for the same
transition rides it, and any other waits for its move, then acts on the
state it left.  So a request racing a Move follows the object to its
target, and racing Activates start one process, not two.
"""

import pytest

from repro.errors import LifecycleError, RequestRefused
from repro.jurisdiction.magistrate import LIFECYCLE, REFUSALS, ObjectState
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from tests.invariants import process_violations

#: How each request reaches the magistrate's implementation directly, so
#: it runs against the record *now* instead of after a network hop.
CALLS = {
    "Activate": lambda m, loid, other: m.activate_on(loid, None),
    "Deactivate": lambda m, loid, other: m.deactivate(loid),
    "Checkpoint": lambda m, loid, other: m.checkpoint(loid),
    "RecoverObject": lambda m, loid, other: m.recover_object(loid),
    "Copy": lambda m, loid, other: m.copy(loid, other),
    "Move": lambda m, loid, other: m.move(loid, other),
    "Delete": lambda m, loid, other: m.delete(loid),
}


def _build():
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=13
    )
    return system, system.create_class("Counter", factory=CounterImpl)


def _run(system, gen):
    """Run one direct request to completion; its value or its exception."""
    return system.kernel.run_until_complete(system.spawn(gen)) if gen else gen


def _create(system, cls, site="uva"):
    return system.call(cls.loid, "Create", {"magistrate": system.magistrates[site].loid})


def _crash_and_reap(system, loid):
    for server in system.host_servers.values():
        entry = server.impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            server.impl.crash_object(loid, "induced fault")
            system.call(server.loid, "Reap")
            return
    raise AssertionError(f"{loid} runs nowhere")


def _processes(system, loid):
    return sum(
        1
        for server in system.host_servers.values()
        for entry in server.impl.processes.running()
        if entry.loid == loid
    )


def _handed_over(source, target, loid):
    """The target holds the object and the source has heard so."""
    record = source.managed.get(loid.identity)
    return loid.identity in target.managed and (
        record is None or record.state is not ObjectState.INERT
    )


def _until(system, done):
    while not done():
        assert system.kernel.step(), "the kernel drained first"


def _in_state(state):
    """A fresh system with one object in ``state`` at a magistrate.

    Returns (system, magistrate impl, loid, the other magistrate's LOID,
    the Move still finishing for MOVED, else None).
    """
    system, cls = _build()
    uva, doe = system.magistrates["uva"], system.magistrates["doe"]
    if state is ObjectState.GROUP:
        loid = system.call(cls.loid, "CreateReplicated", 2, "first", 1).loid
        here = next(s for s in (uva, doe) if loid.identity in s.impl.managed)
        other = doe if here is uva else uva
        return system, here.impl, loid, other.loid, None
    loid = _create(system, cls).loid
    pending = None
    if state is ObjectState.INERT:
        system.call(uva.loid, "Deactivate", loid)
    elif state is ObjectState.LOST:
        system.call(uva.loid, "Checkpoint", loid)
        _crash_and_reap(system, loid)
    elif state is ObjectState.MOVED:
        # Handed over; the class has not acknowledged NoteMigrated yet.
        pending = system.spawn(uva.impl.move(loid, doe.loid))
        _until(system, lambda: uva.impl.managed[loid.identity].state is state)
    assert uva.impl.managed[loid.identity].state is state
    return system, uva.impl, loid, doe.loid, pending


class TestTheTable:
    def test_every_state_has_a_row_and_every_move_lands_on_a_state(self):
        assert set(LIFECYCLE) == set(ObjectState)
        for row in LIFECYCLE.values():
            assert "Delete" in row  # every state's exit
            assert all(to is None or isinstance(to, ObjectState) for to in row.values())

    @pytest.mark.parametrize("request_name", sorted(CALLS))
    @pytest.mark.parametrize("state", list(ObjectState), ids=lambda s: s.value)
    def test_a_request_makes_the_tables_move_or_raises_its_refusal(self, state, request_name):
        system, magistrate, loid, other, pending = _in_state(state)
        moves = []
        enter = magistrate._enter

        def spy(record, to, *rest):
            moves.append(to)
            return enter(record, to, *rest)

        magistrate._enter = spy
        row = LIFECYCLE[state]
        call = CALLS[request_name](magistrate, loid, other)
        if request_name not in row:
            with pytest.raises(Exception) as refused:
                _run(system, call)
            assert type(refused.value) is REFUSALS.get(request_name, LifecycleError)
            message = str(refused.value)
            assert str(loid) in message and state.value in message
            assert all(legal in message for legal in row)
            assert moves == []
        else:
            answer = _run(system, call)
            if row[request_name] is None:
                assert loid.identity not in magistrate.managed
            else:
                assert (moves[-1] if moves else state) is row[request_name]
            if state is ObjectState.MOVED and request_name != "Delete":
                target = system.magistrates["doe"].impl.managed[loid.identity]
                assert answer == target.address  # followed to the target
        if pending is not None:
            system.kernel.run_until_complete(pending)
        assert process_violations(system) == []

    def test_an_illegal_move_names_the_object_its_state_and_the_legal_moves(self):
        system, magistrate, loid, _other, _pending = _in_state(ObjectState.INERT)
        record = magistrate.managed[loid.identity]
        with pytest.raises(LifecycleError) as illegal:
            magistrate._enter(record, ObjectState.LOST, None, None, "test")
        message = str(illegal.value)
        assert str(loid) in message
        assert "from inert to lost" in message
        assert "(legal: active, inert, moved)" in message
        assert record.state is ObjectState.INERT

    def test_a_group_refuses_activation_so_the_class_tries_its_next_magistrate(self):
        system, magistrate, loid, _other, _pending = _in_state(ObjectState.GROUP)
        with pytest.raises(RequestRefused):
            system.call(magistrate.loid, "Activate", loid)


class TestOneTransitionInFlight:
    @pytest.mark.parametrize("request_name", ["Activate", "RecoverObject"])
    def test_a_request_racing_a_move_follows_it_to_the_target(self, request_name):
        system, cls = _build()
        uva, doe = system.magistrates["uva"].impl, system.magistrates["doe"].impl
        loid = _create(system, cls).loid
        move = system.spawn(uva.move(loid, doe.loid))
        # Arrives while the OPR is in transit: waits for the move, follows it.
        answer = system.spawn(CALLS[request_name](uva, loid, doe.loid))
        address = system.kernel.run_until_complete(answer)
        system.kernel.run_until_complete(move)
        assert address == doe.managed[loid.identity].address
        assert _processes(system, loid) == 1
        assert process_violations(system) == []

    @pytest.mark.parametrize("request_name", ["Activate", "RecoverObject"])
    def test_a_request_after_the_hand_over_follows_it_to_the_target(self, request_name):
        system, cls = _build()
        uva, doe = system.magistrates["uva"].impl, system.magistrates["doe"].impl
        loid = _create(system, cls).loid
        move = system.spawn(uva.move(loid, doe.loid))
        # The target holds the OPR; the class has not heard of it yet.
        _until(system, lambda: _handed_over(uva, doe, loid))
        address = _run(system, CALLS[request_name](uva, loid, doe.loid))
        system.kernel.run_until_complete(move)
        assert address == doe.managed[loid.identity].address
        assert loid.identity not in uva.managed  # the class acknowledged: it went
        assert _processes(system, loid) == 1

    def test_two_concurrent_activates_of_an_inert_object_start_one_process(self):
        system, cls = _build()
        uva = system.magistrates["uva"].impl
        loid = _create(system, cls).loid
        system.call(uva.loid, "Deactivate", loid)
        first = system.spawn(uva.activate_on(loid, None))
        second = system.spawn(uva.activate_on(loid, None))
        address = system.kernel.run_until_complete(first)
        assert system.kernel.run_until_complete(second) == address
        assert _processes(system, loid) == 1
        assert process_violations(system) == []


class TestLost:
    def test_a_lost_object_activated_plainly_survives_a_second_crash(self):
        """LOST -> ACTIVE is a recovery whichever request asked, so it keeps
        the checkpoint: a plain Activate (the class's GetBinding after a
        sweep's NoteDeactivated), then a crash before any new checkpoint,
        still comes back with the checkpointed state."""
        system, cls = _build()
        uva = system.magistrates["uva"]
        loid = _create(system, cls).loid
        system.call(loid, "Increment", 5)
        system.call(uva.loid, "Checkpoint", loid)
        _crash_and_reap(system, loid)
        assert uva.impl.managed[loid.identity].state is ObjectState.LOST
        system.call(uva.loid, "Activate", loid)  # not RecoverObject
        assert uva.impl.managed[loid.identity].state is ObjectState.ACTIVE
        _crash_and_reap(system, loid)
        assert uva.impl.managed[loid.identity].state is ObjectState.LOST
        assert system.call(loid, "Get") == 5
