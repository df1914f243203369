package core

import "samsys/internal/pack"

// Item is a shared data item (see package pack).
type Item = pack.Item

// Protocol messages. Every shared-data message carries the name it
// concerns; data-carrying messages additionally carry a deep copy of the
// item. Sizes on the wire are the item's packed size plus a fixed header.

// --- value protocol ---

// msgValCreated: creator -> home, at Publish.
type msgValCreated struct {
	name  Name
	owner int
	uses  int64
}

// msgValGet: requester -> home, to locate and fetch a value.
type msgValGet struct {
	name Name
	from int
}

// msgValFwd: home -> owner, forward a fetch request.
type msgValFwd struct {
	name Name
	to   int
}

// msgValData: owner -> requester (fetch reply or push).
type msgValData struct {
	name Name
	item Item
	size int
}

// msgCopyNote: pusher -> home, records that dst now holds a copy.
type msgCopyNote struct {
	name   Name
	holder int
}

// msgUsesDone: consumer -> home, consumes k of the value's declared uses.
type msgUsesDone struct {
	name Name
	k    int64
}

// msgValRelease: home -> copy holder, drop the (remote) copy.
type msgValRelease struct {
	name Name
}

// msgRenameReq: owner -> home, wait for old value's uses to drain.
type msgRenameReq struct {
	name Name
	from int
}

// msgRenameOK: home -> owner, storage may be reused.
type msgRenameOK struct {
	name Name
}

// msgDestroy: any -> home, drop the value everywhere.
type msgDestroy struct {
	name Name
}

// --- accumulator protocol ---

// msgAccCreated: creator -> home.
type msgAccCreated struct {
	name  Name
	owner int
}

// msgAccAcq: requester -> home, join the mutual-exclusion queue.
type msgAccAcq struct {
	name Name
	from int
}

// msgAccFwd: home -> previous queue tail, naming its successor.
type msgAccFwd struct {
	name Name
	next int
}

// msgAccData: holder -> successor, migrating the accumulator.
type msgAccData struct {
	name    Name
	item    Item
	size    int
	version int64
}

// msgChaoticGet: reader -> home (and forwarded along the migration path),
// requesting a recent snapshot.
type msgChaoticGet struct {
	name Name
	from int
}

// msgChaoticData: some recent holder -> reader, a read-only snapshot.
type msgChaoticData struct {
	name    Name
	item    Item
	size    int
	version int64
}

// msgCommitNote: holder -> home after each committed update, only in
// Invalidate mode.
type msgCommitNote struct {
	name    Name
	version int64
}

// msgInvalidate: home -> snapshot holders, only in Invalidate mode.
type msgInvalidate struct {
	name Name
}

// msgConvert: holder/owner -> home, switching a name between accumulator
// and value phases.
type msgConvert struct {
	name    Name
	owner   int
	toValue bool
	uses    int64
}

// --- barriers ---

// msgBarrierArrive: node -> node 0.
type msgBarrierArrive struct {
	epoch int64
	from  int
}

// msgBarrierRelease: node 0 -> everyone.
type msgBarrierRelease struct {
	epoch int64
}

// --- task subsystem ---

// msgTask: spawner -> executing node.
type msgTask struct {
	task any
	size int
}

// msgIdleReport: node -> node 0, sent when the node's queue drains.
type msgIdleReport struct {
	from      int
	spawned   int64
	processed int64
}

// msgTermProbe: node 0 -> everyone, asking for current counts.
type msgTermProbe struct {
	round int64
}

// msgTermReply: node -> node 0.
type msgTermReply struct {
	round     int64
	from      int
	spawned   int64
	processed int64
	idle      bool
}

// msgTerminate: node 0 -> everyone, the task pool is globally empty.
type msgTerminate struct{}

// smallMsgSize is the wire size of control messages with no payload.
const smallMsgSize = msgHeaderBytes
