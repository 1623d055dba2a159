// Package migrate is the record format and the replay engine of AvA's VM
// migration (§4.3): record and replay of annotated API calls plus
// synthesized copies of device memory.
//
// The record log is the failover guardian's shadow log: every call whose
// specification carries a track annotation — global configuration, object
// creation and modification — as a RecordedCall, pruned when the objects it
// touches are destroyed. A checkpoint synthesizes copies of every stateful
// object. To migrate, the guardian cuts a checkpoint and its dialer
// relocates the VM (ava.Stack.MigrateVM); Replay re-executes the recorded
// calls against the destination API server to reinitialize the device and
// reallocate all objects, rebinds the recreated objects to the handle
// values the guest already holds, restores the device buffers, and the
// application resumes untouched.
package migrate

import (
	"encoding/binary"
	"fmt"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/spec"
)

// RecordedCall is one entry of the record log (§4.3): a call whose track
// annotation requires replay to reconstruct device state, together with the
// reply it produced (the outs let Replay rebind the handles the original
// call handed to the guest). The failover guardian's shadow log keeps these.
type RecordedCall struct {
	Func uint32
	Args []marshal.Value
	Ret  marshal.Value
	Outs []marshal.Value
	// Created is the guest handle the call produced (TrackCreate only).
	Created marshal.Handle
	// Seq is the guest sequence number of the recorded call; the guardian
	// keys its shadow log and checkpoint watermark on it.
	Seq uint64
}

// Obsoleted reports whether destroying handle h makes this entry useless
// for replay: the entry created h, or touches h in its arguments.
func (rc *RecordedCall) Obsoleted(h marshal.Handle) bool {
	if h == 0 {
		return false
	}
	if rc.Created == h {
		return true
	}
	for _, v := range rc.Args {
		if v.Kind() == marshal.KindHandle && v.Handle() == h {
			return true
		}
	}
	return false
}

// CloneValues deep-copies a value vector (buffer contents included) so a
// retained copy cannot alias a transport frame about to be recycled.
func CloneValues(vs []marshal.Value) []marshal.Value {
	if vs == nil {
		return nil // keep nil-ness: cloned state must round-trip the wire codecs byte-stable
	}
	out := make([]marshal.Value, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// Target is where Replay rebuilds state: an API server context, reached by
// the failover guardian's control-call round trips over the link it dialed,
// whether that server runs in this process or on another host. Same-host
// and cross-host recovery, migration and mirror rehydration differ only in
// the link the Target rides.
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

// Replay is the one replay engine: it re-executes the recorded log on the
// target in order, rebinds the handles each replayed call created or
// returned to the values the original call gave the guest, and then
// synthesizes the reverse copies, restoring each stateful object. State for
// a handle that replay did not recreate belongs to an object destroyed after
// the checkpoint was cut, and is skipped. Any other failure aborts the
// replay.
func Replay(t Target, desc *cava.Descriptor, log []RecordedCall, objects map[marshal.Handle][]byte) error {
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
		pairs, err := HandlePairs(fd, rc, reply)
		if err != nil {
			return err
		}
		if len(pairs) > 0 {
			if err := t.Rebind(pairs); err != nil {
				return fmt.Errorf("migrate: %s: %w", fd.Name, err)
			}
		}
	}
	for h, state := range objects {
		if _, err := t.RestoreObject(h, state); err != nil {
			return fmt.Errorf("migrate: restore handle %d: %w", h, err)
		}
	}
	return nil
}

// HandlePairs diffs a call's recorded reply against the reply its
// re-execution produced and returns the handle moves that put the recreated
// objects back under the values the guest holds: the return value, handle
// outs, and handle arrays returned through byte outs. A recorded object the
// re-execution did not produce — a non-zero handle that came back 0, as
// when the device it opens is still held — is an error naming the
// function: the guest holds a handle the new server cannot honour, and a
// replay that went on would answer its every later call wrongly.
func HandlePairs(fd *cava.FuncDesc, rc *RecordedCall, reply *marshal.Reply) ([]server.HandlePair, error) {
	var (
		pairs   []server.HandlePair
		missing marshal.Handle
	)
	add := func(recorded, fresh marshal.Handle) {
		switch {
		case recorded == 0 || recorded == fresh:
		case fresh == 0:
			if missing == 0 {
				missing = recorded
			}
		default:
			pairs = append(pairs, server.HandlePair{Fresh: fresh, Recorded: recorded})
		}
	}
	diverged := func() ([]server.HandlePair, error) {
		if missing != 0 {
			return nil, fmt.Errorf("migrate: replay of %s diverged: recorded handle %d was not re-created", fd.Name, missing)
		}
		return pairs, nil
	}
	if rc.Ret.Kind() == marshal.KindHandle {
		fresh := marshal.Handle(0)
		if reply.Ret.Kind() == marshal.KindHandle {
			fresh = reply.Ret.Handle()
		}
		add(rc.Ret.Handle(), fresh)
	}
	if len(rc.Outs) != len(reply.Outs) {
		return diverged()
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
		case oldV.Kind() == marshal.KindHandle:
			add(oldV.Handle(), 0) // the out came back null
		}
	}
	return diverged()
}
