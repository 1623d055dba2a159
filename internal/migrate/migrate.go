// Package migrate implements AvA's VM migration support (§4.3): record and
// replay of annotated API calls plus synthesized copies of device memory.
//
// During normal execution the API server records every call whose
// specification carries a track annotation — global configuration, object
// creation and modification — pruning entries when the objects they created
// are destroyed. To migrate, Capture suspends the VM's context, drains the
// record log, and synthesizes copies from every extant device buffer to
// host memory. Any VM migration mechanism can then move the snapshot;
// Restore replays the recorded calls against the destination API server to
// reinitialize the device and reallocate all objects, rebinds the recreated
// objects to the handle values the guest already holds, restores the device
// buffers, and the application resumes untouched.
//
// Replay is that engine, written once over a Target: Restore passes the
// destination server in this process (LocalTarget); the failover guardian
// passes the same for same-host recovery and mirror rehydration, and a
// control-call target for recovery onto another host.
package migrate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/spec"
)

// Adapter is the object-state contract an API binding installs on its
// server.Registry; the engine reaches it only through server.Context.
type Adapter = server.Adapter

// Snapshot is a migratable image of one VM's accelerator state.
type Snapshot struct {
	VM      uint32
	Name    string
	Log     []server.RecordedCall
	Objects map[marshal.Handle][]byte // stateful object contents by guest handle
}

// Encode serializes the snapshot for transport.
func (s *Snapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("migrate: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a snapshot.
func Decode(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
		return nil, fmt.Errorf("migrate: decode: %w", err)
	}
	return &s, nil
}

// Capture quiesces the VM's API server context and snapshots its state.
// The context remains frozen (the source is about to be torn down); call
// Context.Thaw to abort the migration instead.
func Capture(ctx *server.Context) (*Snapshot, error) {
	ctx.Freeze()
	objects, err := ctx.SnapshotObjects()
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	return &Snapshot{VM: ctx.VM, Name: ctx.Name, Log: ctx.RecordLog(), Objects: objects}, nil
}

// Restore replays the snapshot onto a destination server context,
// rebinding recreated objects to the guest's original handle values and
// restoring device buffer contents. The destination context must be fresh.
func Restore(snap *Snapshot, dst *server.Server, ctx *server.Context) error {
	return Replay(LocalTarget{Server: dst, Ctx: ctx}, dst.Registry().Desc, snap.Log, snap.Objects, RestoreOptions{})
}

// RestoreOptions relaxes Replay for callers whose snapshot may be slightly
// stale — the failover path restores from a periodic checkpoint rather than
// a freshly quiesced capture, so some recorded objects may have been
// destroyed since the checkpoint was cut.
type RestoreOptions struct {
	// SkipUnknownObjects ignores checkpointed object state whose handle no
	// longer exists after replay (the object was destroyed after the
	// checkpoint) instead of failing the restore.
	SkipUnknownObjects bool
}

// Target is where Replay rebuilds state: an API server context reached
// in-process (LocalTarget) or by control-call round trips over a link (the
// failover guardian's wire target). Migration restore, same-host recovery,
// cross-host recovery and mirror rehydration differ only in the Target they
// pass.
type Target interface {
	// Execute runs one recorded call (flagged marshal.FlagReplay) and
	// returns its reply; the target may renumber call.Seq.
	Execute(call *marshal.Call) (*marshal.Reply, error)
	// Rebind moves the objects one replayed reply created from their fresh
	// handles to the recorded ones, all pairs of the reply at once.
	Rebind(pairs []server.HandlePair) error
	// RestoreObject overwrites the stateful payload of the object under h;
	// found=false means no such handle exists after replay.
	RestoreObject(h marshal.Handle, state []byte) (found bool, err error)
}

// LocalTarget is the in-process Target: calls execute on Server in Ctx,
// handles move in Ctx's table, object state restores through the Adapter of
// Server's registry. It also has the capture side the failover guardian's
// checkpoints use (Snapshot, SnapshotDelta), so a guardian handles a link to
// a server in its own process and a link to another host through one set of
// methods — each a server.Context method here, the same method behind a
// control call there.
type LocalTarget struct {
	Server *server.Server
	Ctx    *server.Context
}

// Execute implements Target.
func (t LocalTarget) Execute(call *marshal.Call) (*marshal.Reply, error) {
	if rep := t.Server.Execute(t.Ctx, call); rep != nil {
		return rep, nil
	}
	return nil, fmt.Errorf("migrate: no reply")
}

// Rebind implements Target.
func (t LocalTarget) Rebind(pairs []server.HandlePair) error { return t.Ctx.Rebind(pairs) }

// RestoreObject implements Target.
func (t LocalTarget) RestoreObject(h marshal.Handle, state []byte) (bool, error) {
	return t.Ctx.RestoreObject(h, state)
}

// Snapshot serializes every stateful object in Ctx's table, by guest handle.
func (t LocalTarget) Snapshot() (map[marshal.Handle][]byte, error) { return t.Ctx.SnapshotObjects() }

// SnapshotDelta drains every stateful object's dirty ranges since the
// previous drain; ok=false means take a Snapshot instead.
func (t LocalTarget) SnapshotDelta() ([]marshal.ObjectDelta, bool) {
	return t.Ctx.SnapshotObjectDeltas()
}

// Replay is the one replay engine: it re-executes the recorded log on the
// target in order, rebinds the handles each replayed call created or
// returned to the values the original call gave the guest, and then
// synthesizes the reverse copies, restoring each stateful object. Any
// failure aborts the replay.
func Replay(t Target, desc *cava.Descriptor, log []server.RecordedCall, objects map[marshal.Handle][]byte, opts RestoreOptions) error {
	for i := range log {
		rc := &log[i]
		fd, ok := desc.ByID(rc.Func)
		if !ok {
			return fmt.Errorf("migrate: recorded call #%d references unknown function %d", i, rc.Func)
		}
		reply, err := t.Execute(&marshal.Call{
			Seq:   uint64(i + 1),
			Func:  rc.Func,
			Flags: marshal.FlagReplay,
			Args:  rc.Args,
		})
		if err != nil {
			return fmt.Errorf("migrate: replay of %s: %w", fd.Name, err)
		}
		if reply.Status != marshal.StatusOK {
			return fmt.Errorf("migrate: replay of %s failed: %s", fd.Name, reply.Err)
		}
		if pairs := HandlePairs(fd, rc, reply); len(pairs) > 0 {
			if err := t.Rebind(pairs); err != nil {
				return fmt.Errorf("migrate: %s: %w", fd.Name, err)
			}
		}
	}
	for h, state := range objects {
		found, err := t.RestoreObject(h, state)
		if err != nil {
			return fmt.Errorf("migrate: restore handle %d: %w", h, err)
		}
		if !found && !opts.SkipUnknownObjects {
			return fmt.Errorf("migrate: restored state for unknown handle %d", h)
		}
	}
	return nil
}

// HandlePairs diffs a call's recorded reply against the reply its
// re-execution produced and returns the handle moves that put the recreated
// objects back under the values the guest holds: the return value, handle
// outs, and handle arrays returned through byte outs.
func HandlePairs(fd *cava.FuncDesc, rc *server.RecordedCall, reply *marshal.Reply) []server.HandlePair {
	var pairs []server.HandlePair
	add := func(recorded, fresh marshal.Handle) {
		if recorded != 0 && fresh != 0 && recorded != fresh {
			pairs = append(pairs, server.HandlePair{Fresh: fresh, Recorded: recorded})
		}
	}
	if rc.Ret.Kind() == marshal.KindHandle && reply.Ret.Kind() == marshal.KindHandle {
		add(rc.Ret.Handle(), reply.Ret.Handle())
	}
	if len(rc.Outs) != len(reply.Outs) {
		return pairs
	}
	slot := 0
	for i := range fd.Params {
		pd := &fd.Params[i]
		if !pd.Out() {
			continue
		}
		if slot == len(rc.Outs) {
			break // a log from the network may carry fewer outs than the spec
		}
		oldV, newV := rc.Outs[slot], reply.Outs[slot]
		slot++
		switch {
		case oldV.Kind() == marshal.KindHandle && newV.Kind() == marshal.KindHandle:
			add(oldV.Handle(), newV.Handle())
		case pd.Kind == spec.KindHandle && oldV.Kind() == marshal.KindBytes && newV.Kind() == marshal.KindBytes:
			n := min(len(oldV.Bytes()), len(newV.Bytes())) / 8
			for j := 0; j < n; j++ {
				add(marshal.Handle(binary.LittleEndian.Uint64(oldV.Bytes()[8*j:])),
					marshal.Handle(binary.LittleEndian.Uint64(newV.Bytes()[8*j:])))
			}
		}
	}
	return pairs
}
