package host_test

import (
	"fmt"
	"testing"

	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/migrate"
	"ava/internal/mvnc"
	"ava/internal/server"
	"ava/internal/transport"
)

// linkTarget is a replay target over a raw VM connection: one synchronous
// call per frame, the reply read before the next call goes.
type linkTarget struct {
	ep  transport.Endpoint
	seq uint64
}

func (l *linkTarget) Execute(call *marshal.Call) (*marshal.Reply, error) {
	l.seq++
	c := *call
	c.Seq = l.seq
	if err := l.ep.Send(marshal.EncodeBatch([][]byte{marshal.EncodeCall(&c)})); err != nil {
		return nil, err
	}
	frame, err := l.ep.Recv()
	if err != nil {
		return nil, err
	}
	return marshal.DecodeReply(frame)
}

func (l *linkTarget) Rebind(pairs []server.HandlePair) error {
	var args []marshal.Value
	for _, p := range pairs {
		args = append(args, marshal.HandleVal(p.Fresh), marshal.HandleVal(p.Recorded))
	}
	rep, err := l.Execute(&marshal.Call{Func: marshal.FuncRebind, Args: args})
	if err == nil && rep.Status != marshal.StatusOK {
		err = fmt.Errorf("rebind: %s", rep.Err)
	}
	return err
}

func (l *linkTarget) RestoreObject(marshal.Handle, []byte) (bool, error) { return false, nil }

// record executes one call on l and keeps it, with its reply, as the
// record log would.
func (l *linkTarget) record(t *testing.T, log *[]migrate.RecordedCall, name string, args ...marshal.Value) *marshal.Reply {
	t.Helper()
	fd, _ := mvnc.Descriptor().Lookup(name)
	rep, err := l.Execute(&marshal.Call{Func: fd.ID, Args: args})
	if err != nil || rep.Status != marshal.StatusOK || rep.Ret.Int() != 0 {
		t.Fatalf("%s: %+v, %v", name, rep, err)
	}
	*log = append(*log, migrate.RecordedCall{Func: fd.ID, Args: migrate.CloneValues(args),
		Ret: rep.Ret, Outs: migrate.CloneValues(rep.Outs)})
	return rep
}

// A reconnect can reach the host while the previous connection of the same
// VM is still open and its serve loop blocked in Recv — a deaf link, which
// the guest has given up on and the host has not noticed. Binding the new
// incarnation ends the old one: the host closes the old connection and
// waits for its incarnation to give back the MVNC stick it opened, so the
// replayed mvncOpenDevice on the new connection finds the stick free.
func TestHostDeafLinkReleasedAtBind(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	reg := server.NewRegistry(mvnc.Descriptor())
	mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{Sticks: 1}))
	h := startHost(t, server.New(reg), host.Config{API: "mvnc"})

	old := &linkTarget{ep: greet(t, h.Addr(), 4, 0, "deaf-vm")}
	var log []migrate.RecordedCall
	dev := old.record(t, &log, "mvncOpenDevice", marshal.Uint(0), marshal.Len(8)).Outs[0].Handle()
	blob := mvnc.GraphBlob("inception_v3_sim", 3, 10, 512)
	graph := old.record(t, &log, "mvncAllocateGraph", marshal.HandleVal(dev), marshal.Str("g"),
		marshal.Uint(uint64(len(blob))), marshal.BytesVal(blob), marshal.Len(8)).Outs[0].Handle()
	old.record(t, &log, "mvncSetGraphOption", marshal.HandleVal(graph), marshal.Uint(1), marshal.Uint(77))

	// The old connection stays open on the guest's side.
	fresh := &linkTarget{ep: greet(t, h.Addr(), 4, 1, "deaf-vm")}
	if err := migrate.Replay(fresh, mvnc.Descriptor(), log, nil); err != nil {
		t.Fatalf("replay into the new incarnation: %v", err)
	}
	fd, _ := mvnc.Descriptor().Lookup("mvncGetGraphOption")
	rep, err := fresh.Execute(&marshal.Call{Func: fd.ID, Args: []marshal.Value{marshal.HandleVal(graph), marshal.Uint(1), marshal.Len(4)}})
	if err != nil || rep.Status != marshal.StatusOK || rep.Ret.Int() != 0 || rep.Outs[0].Uint() != 77 {
		t.Fatalf("graph option after replay: %+v, %v", rep, err)
	}
	if _, err := old.ep.Recv(); err == nil {
		t.Fatal("the old connection still carries frames after the new incarnation bound")
	}
}
