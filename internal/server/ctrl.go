package server

import (
	"fmt"

	"ava/internal/framebuf"
	"ava/internal/marshal"
)

// executeControl serves the reserved control functions the failover
// guardian sends to checkpoint a server and to rebuild a replacement one
// from the record log — the only way anything outside this package
// captures, restores or rebinds a context, whether the guardian runs in
// this process or on another host. They share the ordinary call channel
// (and the per-VM handle isolation boundary) but never touch the API
// descriptor, so any silo accepts them.
//
// The outcome is written into sl.reply, which the caller has cleared to a
// bare StatusOK reply for sl.call.Seq.
func (s *Server) executeControl(ctx *Context, sl *callSlot) {
	call, rep := &sl.call, &sl.reply
	fail := func(st marshal.Status, format string, args ...any) {
		rep.Status, rep.Err = st, fmt.Sprintf(format, args...)
	}
	switch call.Func {
	case marshal.FuncRebind:
		// Args: [fresh, recorded] handle pairs, every pair of one replayed
		// reply in one call — move the objects that reply created under
		// fresh handles back to the handles the guest holds, two-phase so
		// pairs that overlap (fresh [4,5] for recorded [5,6]) cannot
		// shadow each other.
		ok := len(call.Args) >= 2 && len(call.Args)%2 == 0
		for i := range call.Args {
			ok = ok && call.Args[i].Kind() == marshal.KindHandle
		}
		if !ok {
			fail(marshal.StatusDenied, "rebind: want [fresh Handle, recorded Handle] pairs")
			return
		}
		pairs := make([]HandlePair, len(call.Args)/2)
		for i := range pairs {
			pairs[i] = HandlePair{Fresh: call.Args[2*i].Handle(), Recorded: call.Args[2*i+1].Handle()}
		}
		if err := ctx.Rebind(pairs); err != nil {
			fail(marshal.StatusInternal, "%v", err)
		}
		return

	case marshal.FuncRestore:
		// Args: [Handle, Bytes] — overwrite the object's stateful payload
		// from a checkpoint snapshot. An unknown handle is not fatal (the
		// object was destroyed after the checkpoint): Ret reports 0.
		if len(call.Args) != 2 ||
			call.Args[0].Kind() != marshal.KindHandle || call.Args[1].Kind() != marshal.KindBytes {
			fail(marshal.StatusDenied, "restore: want [Handle, Bytes]")
			return
		}
		found, err := ctx.RestoreObject(call.Args[0].Handle(), call.Args[1].Bytes())
		if err != nil {
			fail(marshal.StatusInternal, "restore handle %d: %v", call.Args[0].Handle(), err)
			return
		}
		rep.Ret = marshal.Int(0)
		if found {
			rep.Ret = marshal.Int(1)
		}
		return

	case marshal.FuncSnapshot:
		// Args: [full Int] — capture every stateful object of the VM as
		// deltas, all Full when full is nonzero. Validated before the silo
		// is asked: a capture moves its dirty watermarks. Every checkpoint
		// asks, so the payload is drawn from the frame pool and goes back
		// with the slot, once the reply has been encoded out of it.
		if len(call.Args) != 1 || call.Args[0].Kind() != marshal.KindInt {
			fail(marshal.StatusDenied, "snapshot: want [full Int]")
			return
		}
		deltas, err := ctx.SnapshotObjects(call.Args[0].Int() != 0)
		if err != nil {
			fail(marshal.StatusInternal, "%v", err)
			return
		}
		sl.ctl = marshal.AppendObjectDeltas(framebuf.Get(marshal.ObjectDeltasSize(deltas)), deltas)
		rep.Ret = marshal.BytesVal(sl.ctl)
		return
	}
	fail(marshal.StatusDenied, "unknown control function #%d", call.Func)
}
