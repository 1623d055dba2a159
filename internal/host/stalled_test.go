package host_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ava/internal/averr"
	"ava/internal/backoff"
	"ava/internal/failover"
	"ava/internal/fleet"
	"ava/internal/host"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// ctlBound is transport's (unexported, unsettable) control time bound; slack
// is what scheduling may add on top before a row counts as unbounded.
const (
	ctlBound = 5 * time.Second
	slack    = 3 * time.Second
)

// badPeer is a listener that accepts every connection, answers the first
// `honest` requests of each correctly (an accepting ack), and from then on
// misbehaves: answer == nil never answers, otherwise answer(req) is what it
// sends back. It records how long each connection stayed open.
type badPeer struct {
	l      *transport.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	held   []time.Duration
	honest int
	answer func(req transport.Ctl) []byte
}

func startBadPeer(t *testing.T, honest int, answer func(transport.Ctl) []byte) *badPeer {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		panic(err) // called off the test goroutine
	}
	p := &badPeer{l: l, honest: honest, answer: answer}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			ep, err := l.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.serve(ep)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		p.wg.Wait()
	})
	return p
}

func (p *badPeer) serve(ep transport.Endpoint) {
	defer p.wg.Done()
	defer ep.Close()
	start := time.Now()
	defer func() {
		p.mu.Lock()
		p.held = append(p.held, time.Since(start))
		p.mu.Unlock()
	}()
	for n := 0; ; n++ {
		frame, err := ep.Recv()
		if err != nil {
			return
		}
		req, err := transport.DecodeCtl(frame)
		switch {
		case err != nil:
			return
		case n < p.honest:
			transport.Ack(ep, req, nil)
		case p.answer != nil:
			ep.Send(p.answer(req))
		}
	}
}

// longestHeld is the longest any connection to the peer stayed open.
func (p *badPeer) longestHeld() (longest time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.held {
		longest = max(longest, d)
	}
	return longest
}

// mirrorFailure pushes one mutation through a RemoteMirror aimed at addr
// and returns the failure its pump reports (the pump has no caller to
// return an error to; the event text carries the wrapped sentinel's).
func mirrorFailure(addr string) error {
	events := make(chan string, 16)
	rm := failover.NewRemoteMirror(addr, failover.RemoteMirrorConfig{
		VM: 1, Name: "stalled-vm",
		Backoff: backoff.Config{Budget: time.Nanosecond}, // one redial per series
		OnEvent: func(msg string) {
			select {
			case events <- msg:
			default:
			}
		},
	})
	defer rm.Close()
	rm.MirrorEpoch(1, 0)
	timeout := time.After(2*ctlBound + slack)
	for {
		select {
		case msg := <-events:
			if strings.Contains(msg, "unreachable") || strings.Contains(msg, "connection lost") {
				for _, sentinel := range []*averr.Error{averr.ErrDeadlineExceeded, averr.ErrProtocol} {
					if strings.Contains(msg, sentinel.Error()) {
						return fmt.Errorf("%s: %w", msg, sentinel)
					}
				}
				return errors.New(msg)
			}
		case <-timeout:
			return errors.New("the mirror pump reported nothing")
		}
	}
}

// Every control exchange in the tree is one transport.RoundTrip, so a peer
// that accepts the connection and then never answers — or answers the wrong
// frame — costs each of them one time bound and a categorized error, not a
// goroutine parked in Recv forever. (At the parent commit the DialHost row
// hangs: Guardian.dialAndReplay sat in Greet until the process exited.)
func TestStalledPeerIsBounded(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	if testing.Short() {
		t.Skip("the silent rows wait out the control time bound")
	}
	exchanges := []struct {
		name   string
		honest int // requests the peer answers correctly before it misbehaves
		run    func(addr string) error
	}{
		{"DialHost", 0, func(addr string) error {
			_, err := failover.DialHost(addr, 1, 3, "stalled-vm")
			return err
		}},
		{"RemoteMirror-connect", 0, mirrorFailure},
		{"RemoteMirror-batch", 1, mirrorFailure},
		{"FetchMirrorState", 1, func(addr string) error {
			_, err := failover.FetchMirrorState(addr, 1)
			return err
		}},
		{"fleet.Client.Live", 0, func(addr string) error {
			c := fleet.DialRegistry(addr)
			defer c.Close()
			_, err := c.Live("opencl")
			return err
		}},
	}
	echo := func(op transport.Op, seqOff uint64) func(transport.Ctl) []byte {
		return func(req transport.Ctl) []byte {
			return transport.EncodeCtl(transport.Ctl{Op: op, VM: req.VM, Seq: req.Seq + seqOff, Payload: []byte{1}})
		}
	}
	peers := []struct {
		name   string
		answer func(transport.Ctl) []byte
		want   *averr.Error
	}{
		{"silent", nil, averr.ErrDeadlineExceeded},
		{"wrong-seq", echo(transport.OpAck, 1), averr.ErrProtocol},
		{"wrong-op", echo(transport.OpHello, 0), averr.ErrProtocol},
		{"retired-AVA2", func(transport.Ctl) []byte { return []byte("\x01\x00\x00\x00AVA2\x03\x00\x00\x00stalled-vm") }, averr.ErrProtocol},
		{"retired-AVAM", func(transport.Ctl) []byte {
			return []byte("AVAM\x04\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01")
		}, averr.ErrProtocol},
	}
	// Every row at once, as goroutines rather than parallel subtests: the
	// silent rows each sit out the bound, and -parallel would queue them.
	var rows sync.WaitGroup
	for _, ex := range exchanges {
		for _, peer := range peers {
			rows.Add(1)
			go func() {
				defer rows.Done()
				row := ex.name + "/" + peer.name
				p := startBadPeer(t, ex.honest, peer.answer)
				start := time.Now()
				err := ex.run(p.l.Addr())
				took := time.Since(start)
				if !errors.Is(err, peer.want) {
					t.Errorf("%s: after %v: %v, want an error wrapping %q", row, took, err, peer.want)
				}
				// The pump's one redial makes a RemoteMirror spend the bound twice.
				if limit := 2*ctlBound + slack; took > limit {
					t.Errorf("%s: took %v, want under %v", row, took, limit)
				}
				p.l.Close()
				p.wg.Wait()
				if held := p.longestHeld(); held > ctlBound+slack {
					t.Errorf("%s: a connection stayed open %v, want it cut within %v", row, held, ctlBound+slack)
				}
			}()
		}
	}
	rows.Wait()
}

// The mirror image: a peer that connects to a host and never sends its
// first frame is dropped within the bound — it no longer holds a serve
// goroutine and a tracked endpoint until the process exits — and no VM
// context is touched.
func TestHostDropsConnectionWithoutFirstFrame(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	if testing.Short() {
		t.Skip("waits out the control time bound")
	}
	srv := clServer()
	h := startHost(t, srv, host.Config{Mirror: "127.0.0.1:0"})
	live := greet(t, h.Addr(), 9, 0, "bystander")
	platformCount(t, live, 1)
	waitFor(t, "the bystander's call to leave the queue", func() bool { return srv.Snapshot()[0].QueueDepth == 0 })
	before := srv.Snapshot()

	start := time.Now()
	var idle []transport.Endpoint
	for _, addr := range []string{h.Addr(), h.MirrorAddr()} {
		ep, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		idle = append(idle, ep)
	}
	for _, ep := range idle {
		if _, err := ep.Recv(); err == nil {
			t.Fatal("the host answered a connection that said nothing")
		}
		if took := time.Since(start); took < ctlBound || took > ctlBound+slack {
			t.Fatalf("silent connection dropped after %v, want about %v", took, ctlBound)
		}
	}
	waitFor(t, "the dropped connections to leave the tracked set", func() bool { return h.TrackedConns() == 1 })
	if got := srv.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatalf("silent connections disturbed the contexts:\n got %+v\nwant %+v", got, before)
	}
}

// Asking a mirror host about a VM nobody mirrored is a read: it returns the
// empty state and leaves no row behind in GET /mirror / `avactl mirror`.
// (MirrorServer.State used to go through the creating Mirror(vm), so every
// probe minted an entry that was never freed.)
func TestHostMirrorFetchDoesNotCreate(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startHost(t, clServer(), host.Config{Mirror: "127.0.0.1:0"})
	st, err := failover.FetchMirrorState(h.MirrorAddr(), 42)
	if err != nil || len(st.Entries) != 0 || len(st.Objects) != 0 || st.W != 0 {
		t.Fatalf("probe of an unmirrored VM: %+v, %v, want the empty state", st, err)
	}
	if rows := h.CtlConfig().Mirror(); len(rows) != 0 {
		t.Fatalf("the probe left phantom mirror rows: %+v", rows)
	}
}

// Only a replication session creates: a batch or a state request for a VM
// the connection never said hello for is refused with an ok=0 ack and leaves
// nothing behind, and the first batch of a proper session makes the row.
func TestHostMirrorRefusesOpsWithoutHello(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	h := startHost(t, clServer(), host.Config{Mirror: "127.0.0.1:0"})
	raw, err := transport.Dial(h.MirrorAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A batch of one sub-op: [epoch-mark 7][epoch u32 = 1][w u64 = 0].
	epoch := marshal.EncodeBatch([][]byte{{7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}})
	batch := transport.Ctl{Op: transport.OpMirrorBatch, VM: 7, Seq: 1, Payload: epoch}
	if _, err := transport.RoundTrip(raw, batch, transport.OpAck); !errors.Is(err, transport.ErrRefused) {
		t.Fatalf("batch without a hello: %v, want a refusal", err)
	}
	state := transport.Ctl{Op: transport.OpMirrorState, VM: 7, Seq: 2}
	if _, err := transport.RoundTrip(raw, state, transport.OpMirrorStateResp); !errors.Is(err, transport.ErrRefused) {
		t.Fatalf("state request without a hello: %v, want a refusal", err)
	}
	if rows := h.CtlConfig().Mirror(); len(rows) != 0 {
		t.Fatalf("refused ops left mirror rows: %+v", rows)
	}
	// The same connection, once it says hello for VM 7 (and only VM 7).
	hello := transport.Ctl{Op: transport.OpMirrorHello, VM: 7, Payload: []byte("seven")}
	if _, err := transport.RoundTrip(raw, hello, transport.OpAck); err != nil {
		t.Fatal(err)
	}
	batch.Seq = 3
	if _, err := transport.RoundTrip(raw, batch, transport.OpAck); err != nil {
		t.Fatalf("batch after the hello: %v", err)
	}
	batch.VM, batch.Seq = 8, 4
	if _, err := transport.RoundTrip(raw, batch, transport.OpAck); !errors.Is(err, transport.ErrRefused) {
		t.Fatalf("batch for a VM the session did not open: %v, want a refusal", err)
	}
	want := []failover.MirroredVM{{VM: 7, Name: "seven", Epoch: 1}}
	if rows := h.CtlConfig().Mirror(); !reflect.DeepEqual(rows, want) {
		t.Fatalf("mirror rows = %+v, want %+v", rows, want)
	}
}
