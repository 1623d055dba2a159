package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ava"
	"ava/internal/framebuf"
	"ava/internal/guest"
	"ava/internal/hv"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// Layer replay. The per-layer metrics are not read from instrumentation
// inside the stack (there is none yet): the traced run captures the frames a
// few hundred ops put on the wire, then drives each layer alone, through its
// public functions, with exactly those frames, and times the calls from
// outside. What the layers' sum leaves of the real op time is the cost of
// handing work between goroutines.

// capFrame is one batch frame the guest sent and what came back before it
// sent again. A single-threaded guest blocks in every synchronous call, so a
// frame that ends in one is followed by exactly its reply.
type capFrame struct {
	op      int // -1 = object creation, before the first op
	call    []byte
	replies [][]byte
}

// capPart is the traffic of one API: OpenCL, or fig5's NCSDK.
type capPart struct {
	desc   *ava.Descriptor
	frames []capFrame
}

// capture is the recorded traffic of ops [0, ops) of one client.
type capture struct {
	parts []*capPart
	ops   int
}

// opFrames returns the frames that belong to ops (object creation dropped).
func (p *capPart) opFrames() []capFrame {
	for i, f := range p.frames {
		if f.op >= 0 {
			return p.frames[i:]
		}
	}
	return nil
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// tap is a transport.Endpoint that forwards to inner and keeps a copy of
// every frame in either direction.
type tap struct {
	inner transport.Endpoint
	mu    sync.Mutex
	op    int
	part  *capPart
}

func (t *tap) setOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

func (t *tap) Send(frame []byte) error {
	t.mu.Lock()
	t.part.frames = append(t.part.frames, capFrame{op: t.op, call: clone(frame)})
	t.mu.Unlock()
	return t.inner.Send(frame)
}

func (t *tap) Recv() ([]byte, error) {
	frame, err := t.inner.Recv()
	if err == nil {
		t.mu.Lock()
		if n := len(t.part.frames); n > 0 {
			last := &t.part.frames[n-1]
			last.replies = append(last.replies, clone(frame))
		}
		t.mu.Unlock()
	}
	return frame, err
}

func (t *tap) Close() error     { return t.inner.Close() }
func (t *tap) SendCopies() bool { return transport.SendCopies(t.inner) }
func (t *tap) RecvOwned() bool  { return transport.RecvOwned(t.inner) }

// captureOps runs the workload's first n ops through guest.New attached
// straight to server.ServeVM, with a tap in between.
func captureOps(w *workload, cfg runConfig, n int) (*capture, error) {
	descs, err := w.compileSpecs()
	if err != nil {
		return nil, err
	}
	cp := &capture{ops: n}
	var (
		wg   sync.WaitGroup
		taps []*tap
		libs []*guest.Lib
	)
	for i, desc := range descs {
		srv := server.New(bindSilo(i, desc))
		guestEP, serverEP := transport.NewInProc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeVM(srv.Context(1, "capture"), serverEP)
		}()
		part := &capPart{desc: desc}
		t := &tap{inner: guestEP, op: -1, part: part}
		cp.parts, taps = append(cp.parts, part), append(taps, t)
		libs = append(libs, guest.New(desc, t))
	}
	defer func() {
		for i, lib := range libs {
			lib.Close()
			taps[i].Close()
		}
		wg.Wait()
	}()
	r, err := w.newRunner(clientOver(libs), clientSeed(cfg, 0), cfg)
	if err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		for _, t := range taps {
			t.setOp(k)
		}
		if err := r.op(k); err != nil {
			return nil, fmt.Errorf("capture op %d: %w", k, err)
		}
	}
	return cp, nil
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayer drives the layers with a capture and collects spans and per-op
// figures.
type replayer struct {
	w   *workload
	cfg runConfig
	cp  *capture
	tr  *tracer
	cal *calibrator
	m   map[string]float64
}

// replayReps is how often a replay pass is repeated. One pass over a few
// hundred ops lasts a millisecond or two, short enough to fall entirely
// inside one burst of interference; the median of several does not.
const replayReps = 7

// repeated runs one replay pass replayReps times, each between two
// calibration loops, leaves the median of the pass's metric in r.m and
// returns the median in calibrated microseconds. The per-layer metrics stay
// raw; the calibrated figures feed the coverage ratio, whose numerator and
// denominator are measured seconds apart on a machine that drifts. Only the
// first repetition records spans.
func (r *replayer) repeated(pass func() error, metric string) (float64, error) {
	reps := replayReps
	if r.cp.ops == 1 {
		reps = 1 // fig5: one pass is a third of a second, a sample in itself
	}
	tr := r.tr
	defer func() { r.tr = tr }()
	var raw, scaled []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			r.tr = &tracer{epoch: tr.epoch}
		}
		before := r.cal.run()
		if err := pass(); err != nil {
			return 0, err
		}
		raw = append(raw, r.m[metric])
		scaled = append(scaled, r.m[metric]*calNominalUS/((before+r.cal.run())/2))
	}
	r.m[metric] = median(raw)
	return median(scaled), nil
}

// opSpans holds one root span per op for one replay pass, and each op's
// time inside the layer the pass drives.
type opSpans struct {
	tr         *tracer
	ids        []int
	start, end []time.Time
	us         []float64
}

// newOpSpans reserves one root span per op, in the harness layer: what a
// root keeps as self time is the harness's own glue between layer calls.
func (r *replayer) newOpSpans(pass string) *opSpans {
	n := r.cp.ops
	o := &opSpans{tr: r.tr, ids: make([]int, n), start: make([]time.Time, n), end: make([]time.Time, n), us: make([]float64, n)}
	for k := range o.ids {
		o.ids[k] = r.tr.add(0, k, "harness", "replay."+pass, r.tr.epoch, r.tr.epoch)
	}
	return o
}

// child records a layer call inside op k and stretches the op's root span
// over it.
func (o *opSpans) child(k int, layer, name string, start, end time.Time) {
	o.tr.add(o.ids[k], k, layer, name, start, end)
	o.us[k] += us(end.Sub(start))
	if o.start[k].IsZero() || start.Before(o.start[k]) {
		o.start[k] = start
	}
	if end.After(o.end[k]) {
		o.end[k] = end
	}
	root := &o.tr.spans[o.ids[k]-1]
	root.StartNS = o.start[k].Sub(o.tr.epoch).Nanoseconds()
	root.EndNS = o.end[k].Sub(o.tr.epoch).Nanoseconds()
}

// perOp is the layer's time per op: the median over the replayed ops, which
// a cold first op or a GC cycle landing in one of them does not move.
func (o *opSpans) perOp() float64 { return median(o.us) }

// echo is the guest replay's peer: a transport.Endpoint that answers the
// k-th frame the guest sends with the replies captured for the k-th frame.
type echo struct {
	frames    []capFrame
	copies    [][][]byte // private copies of the replies; the guest may recycle them
	next      int
	replies   chan []byte
	closed    chan struct{}
	closeOnce sync.Once
	owned     bool
}

func newEcho(frames []capFrame, like transport.Endpoint) *echo {
	e := &echo{frames: frames, closed: make(chan struct{}), owned: transport.RecvOwned(like)}
	most := 0
	for _, f := range frames {
		var cs [][]byte
		for _, r := range f.replies {
			cs = append(cs, clone(r))
		}
		e.copies = append(e.copies, cs)
		most = max(most, len(cs))
	}
	// Send never blocks: room for every reply one frame can trigger.
	e.replies = make(chan []byte, most+1)
	return e
}

func (e *echo) Send(frame []byte) error {
	k := e.next
	e.next++
	// The replayed guest must reproduce the captured frame sequence, or the
	// canned replies would answer the wrong calls (and a missing one would
	// hang its caller). Frame length is a cheap, sufficient witness.
	if k >= len(e.frames) || len(frame) != len(e.frames[k].call) {
		e.Close()
		return errors.New("guest replay diverged from the capture")
	}
	for _, r := range e.copies[k] {
		e.replies <- r
	}
	return nil
}

func (e *echo) Recv() ([]byte, error) {
	select {
	case r := <-e.replies:
		return r, nil
	case <-e.closed:
		return nil, transport.ErrClosed
	}
}

func (e *echo) Close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	return nil
}

// SendCopies is false: like the in-process transport the guest normally
// talks to, the echo keeps no claim on a sent frame but does not copy it
// either, so the guest encodes into a fresh frame per send.
func (e *echo) SendCopies() bool { return false }
func (e *echo) RecvOwned() bool  { return e.owned }

// guest replays the ops through a fresh guest library against echo
// endpoints: the whole op, every binding call a Lib.Call, no stack behind it.
// What the workload's own code does between its calls is in the figure too:
// next to nothing on calls, bulk and serve, the Rodinia and Inception host
// code on fig5.
func (r *replayer) guest() error {
	var (
		libs   []*guest.Lib
		echoes []*echo
	)
	like, peer := transport.NewInProc()
	defer like.Close()
	defer peer.Close()
	for _, p := range r.cp.parts {
		e := newEcho(p.frames, like)
		echoes = append(echoes, e)
		libs = append(libs, guest.New(p.desc, e))
	}
	defer func() {
		for i, lib := range libs {
			lib.Close()
			echoes[i].Close()
		}
	}()
	run, err := r.w.newRunner(clientOver(libs), clientSeed(r.cfg, 0), r.cfg)
	if err != nil {
		return fmt.Errorf("guest replay: %w", err)
	}
	roots := r.newOpSpans("guest")
	runtime.GC()
	m0 := mallocCount()
	for k := 0; k < r.cp.ops; k++ {
		t0 := time.Now()
		err := run.op(k)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("guest replay op %d: %w", k, err)
		}
		roots.child(k, "guest", "op", t0, t1)
	}
	r.m["guest.allocs_per_op"] = float64(mallocCount()-m0) / float64(r.cp.ops)
	r.m["guest.call_us_per_op"] = roots.perOp()
	return nil
}

// marshal replays the codec over every captured frame: decode the batch and
// its calls, re-encode them; decode each reply, re-encode it.
func (r *replayer) marshal() error {
	enc, dec := make([]float64, r.cp.ops), make([]float64, r.cp.ops)
	var wire int
	scratch := make([]byte, 0, 1<<20)
	runtime.GC()
	m0 := mallocCount()
	for _, p := range r.cp.parts {
		roots := r.newOpSpans("marshal")
		for _, f := range p.opFrames() {
			wire += len(f.call)
			t0 := time.Now()
			cfs, err := marshal.DecodeBatch(f.call)
			if err != nil {
				return fmt.Errorf("marshal replay: %w", err)
			}
			calls := make([]*marshal.Call, len(cfs))
			for i, cf := range cfs {
				if calls[i], err = marshal.DecodeCall(cf); err != nil {
					return fmt.Errorf("marshal replay: %w", err)
				}
			}
			t1 := time.Now()
			for _, c := range calls {
				scratch, _ = marshal.AppendCallSegments(scratch[:0], c, 0)
			}
			t2 := time.Now()
			roots.child(f.op, "marshal", "DecodeBatch+DecodeCall", t0, t1)
			roots.child(f.op, "marshal", "AppendCallSegments", t1, t2)
			dec[f.op] += us(t1.Sub(t0))
			enc[f.op] += us(t2.Sub(t1))
			for _, rf := range f.replies {
				wire += len(rf)
				t0 := time.Now()
				rep, err := marshal.DecodeReply(rf)
				if err != nil {
					return fmt.Errorf("marshal replay: %w", err)
				}
				t1 := time.Now()
				scratch = marshal.AppendReply(scratch[:0], rep)
				t2 := time.Now()
				roots.child(f.op, "marshal", "DecodeReply", t0, t1)
				roots.child(f.op, "marshal", "AppendReply", t1, t2)
				dec[f.op] += us(t1.Sub(t0))
				enc[f.op] += us(t2.Sub(t1))
			}
		}
	}
	ops := float64(r.cp.ops)
	r.m["marshal.allocs_per_op"] = float64(mallocCount()-m0) / ops
	r.m["marshal.encode_us_per_op"] = median(enc)
	r.m["marshal.decode_us_per_op"] = median(dec)
	r.m["marshal.wire_bytes_per_op"] = float64(wire) / ops
	return nil
}

func newPair(k hopKind) (a, b transport.Endpoint, closeAll func(), err error) {
	switch k {
	case hopRing:
		a, b = transport.NewRing(1 << 20)
	case hopTCP:
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		defer l.Close()
		accepted := make(chan transport.Endpoint, 1)
		go func() {
			ep, _ := l.Accept()
			accepted <- ep
		}()
		if a, err = transport.Dial(l.Addr()); err != nil {
			return nil, nil, nil, err
		}
		if b = <-accepted; b == nil {
			a.Close()
			return nil, nil, nil, errors.New("transport replay: accept failed")
		}
	default:
		a, b = transport.NewInProc()
	}
	return a, b, func() { a.Close(); b.Close() }, nil
}

func (k hopKind) String() string { return [...]string{"inproc", "ring", "tcp"}[k] }

// transport replays the frames over one endpoint pair per hop of the
// workload's path, against a peer goroutine that answers each frame with its
// captured replies: Send, the peer's wake-up, its Send, our wake-up.
func (r *replayer) transport() error {
	var total float64
	var allocs uint64
	for _, hop := range r.w.hops {
		for _, p := range r.cp.parts {
			roots := r.newOpSpans("transport." + hop.String())
			frames := p.opFrames()
			a, b, closeAll, err := newPair(hop)
			if err != nil {
				return err
			}
			recycle := transport.SendCopies(a) // received frames are pool copies
			done := make(chan error, 1)
			go func() {
				for _, f := range frames {
					got, err := b.Recv()
					if err != nil {
						done <- err
						return
					}
					if recycle {
						framebuf.Put(got)
					}
					for _, rf := range f.replies {
						if err := b.Send(rf); err != nil {
							done <- err
							return
						}
					}
				}
				done <- nil
			}()
			runtime.GC()
			m0 := mallocCount()
			for _, f := range frames {
				t0 := time.Now()
				err := a.Send(f.call)
				for i := 0; err == nil && i < len(f.replies); i++ {
					var got []byte
					if got, err = a.Recv(); err == nil && recycle {
						framebuf.Put(got)
					}
				}
				t1 := time.Now()
				if err != nil {
					closeAll()
					return fmt.Errorf("transport replay (%v): %w", hop, err)
				}
				roots.child(f.op, "transport", hop.String()+".Send+Recv", t0, t1)
			}
			total += roots.perOp()
			err = <-done
			allocs += mallocCount() - m0
			closeAll()
			if err != nil {
				return fmt.Errorf("transport replay (%v) peer: %w", hop, err)
			}
		}
	}
	r.m["transport.rtt_us_per_op"] = total
	r.m["transport.allocs_per_op"] = float64(allocs) / float64(r.cp.ops)
	return nil
}

// hvFeed is both harness endpoints of the router replay. Its guest side
// hands the router the captured call frames as fast as the router takes
// them; its server side notes when each comes out and only then releases the
// frame's replies for the trip back. No transport, no peer goroutine: the
// interval between "handed over" and "came out" is the router alone.
type hvFeed struct {
	frames []capFrame
	next   int // guest side: next frame to hand over
	out    int // server side: next frame expected out

	handed, forwarded []time.Time // written by the router's uplink goroutine only
	replies           chan []byte
	pending           sync.WaitGroup // replies released and not yet returned
	closed            chan struct{}
	closeOnce         sync.Once

	mu                 sync.Mutex // the downlink's records; either router goroutine may Send to the guest
	rHanded, rReturned []time.Time
	denied             int
}

type hvGuestSide struct{ *hvFeed }
type hvServerSide struct{ *hvFeed }

func (g hvGuestSide) Recv() ([]byte, error) {
	f := g.hvFeed
	if f.next == len(f.frames) {
		f.pending.Wait() // let the downlink drain before the router unwinds
		return nil, transport.ErrClosed
	}
	frame := f.frames[f.next].call
	f.next++
	f.handed = append(f.handed, time.Now())
	return frame, nil
}

// Send on the guest side receives what the router sends toward the guest:
// forwarded replies, or denials of its own (which the run must not see).
func (g hvGuestSide) Send(frame []byte) error {
	f := g.hvFeed
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.rReturned) < len(f.rHanded) {
		f.rReturned = append(f.rReturned, now)
		f.pending.Done()
	} else {
		f.denied++
	}
	return nil
}

func (s hvServerSide) Send(frame []byte) error {
	f := s.hvFeed
	f.forwarded = append(f.forwarded, time.Now())
	for _, r := range f.frames[f.out].replies {
		f.pending.Add(1)
		f.replies <- r
	}
	f.out++
	return nil
}

func (s hvServerSide) Recv() ([]byte, error) {
	f := s.hvFeed
	select {
	case r := <-f.replies:
		f.mu.Lock()
		f.rHanded = append(f.rHanded, time.Now())
		f.mu.Unlock()
		return r, nil
	case <-f.closed:
		return nil, transport.ErrClosed
	}
}

func (f *hvFeed) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return nil
}

// hv replays the frames through Router.Attach under the workload's
// scheduler and VM policy.
func (r *replayer) hv() error {
	var total float64
	var allocs uint64
	for _, p := range r.cp.parts {
		roots := r.newOpSpans("hv")
		frames := p.opFrames()
		router, vm := hv.NewRouter(p.desc, nil, nil), plainVM(1)
		if r.w.router != nil {
			router, vm = r.w.router(p.desc)
		}
		if err := router.RegisterVM(vm); err != nil {
			return err
		}
		most := 0
		for _, f := range frames {
			most = max(most, len(f.replies))
		}
		feed := &hvFeed{frames: frames, replies: make(chan []byte, most+1), closed: make(chan struct{})}
		runtime.GC()
		m0 := mallocCount()
		if err := router.Attach(vm.ID, hvGuestSide{feed}, hvServerSide{feed}); err != nil {
			return fmt.Errorf("hv replay: %w", err)
		}
		allocs += mallocCount() - m0
		if feed.denied > 0 || len(feed.forwarded) != len(frames) {
			return fmt.Errorf("hv replay: router forwarded %d of %d frames, denied %d calls", len(feed.forwarded), len(frames), feed.denied)
		}
		ri := 0
		for k, f := range frames {
			roots.child(f.op, "hv", "Router.uplink", feed.handed[k], feed.forwarded[k])
			for range f.replies {
				roots.child(f.op, "hv", "Router.downlink", feed.rHanded[ri], feed.rReturned[ri])
				ri++
			}
		}
		total += roots.perOp()
	}
	r.m["hv.admit_us_per_op"] = total
	r.m["hv.allocs_per_op"] = float64(allocs) / float64(r.cp.ops)
	return nil
}

// server replays every captured call through Server.ExecuteFrame with a
// registry of no-op handlers: decode, verify against the spec, allocate
// out-buffers, build and encode the reply — everything but the silo.
func (r *replayer) server() error {
	var total float64
	var allocs uint64
	for _, p := range r.cp.parts {
		roots := r.newOpSpans("server")
		reg := server.NewRegistry(p.desc)
		for _, fd := range p.desc.Funcs {
			reg.MustRegister(fd.Name, func(*server.Invocation) error { return nil })
		}
		srv := server.New(reg)
		ctx := srv.Context(1, "replay")
		type one struct {
			op int
			cf []byte
		}
		var calls []one
		for _, f := range p.opFrames() {
			cfs, err := marshal.DecodeBatch(f.call)
			if err != nil {
				return fmt.Errorf("server replay: %w", err)
			}
			for _, cf := range cfs {
				calls = append(calls, one{f.op, cf})
			}
		}
		runtime.GC()
		m0 := mallocCount()
		for _, c := range calls {
			t0 := time.Now()
			_, err := srv.ExecuteFrame(ctx, c.cf)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("server replay: %w", err)
			}
			roots.child(c.op, "server", "Server.ExecuteFrame", t0, t1)
		}
		total += roots.perOp()
		allocs += mallocCount() - m0
		if errs := ctx.Stats().Errors; errs > 0 {
			return fmt.Errorf("server replay: %d calls answered with an error status", errs)
		}
	}
	r.m["server.dispatch_us_per_op"] = total
	r.m["server.allocs_per_op"] = float64(allocs) / float64(r.cp.ops)
	return nil
}
