package guest

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/clock"
	"ava/internal/framebuf"
	"ava/internal/guest/guesttest"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/transport"
)

// Every check the by-name front used to make lives in Invoke, the one engine;
// these tests drive it the way a generated stub does — descriptor resolved
// once, argument vector in the caller's frame — against the echo endpoint,
// whose tap shows what actually went out.

const invokeSpec = `
api "invoke" version "1.0";
handle dev;
const OK = 0;
const TRUE = 1;
type status = int32_t { success(OK); };

status put(dev d, size_t size, const void *data, uint32_t blocking) {
  if (blocking == TRUE) sync; else async;
  parameter(data) { in; buffer(size); }
}
status fetch(dev d, size_t size, void *out, uint32_t blocking, uint32_t *got) {
  if (blocking == TRUE) sync; else async;
  parameter(out) { out; buffer(size); }
  parameter(got) { out; element; }
}
status swap(dev d, size_t size, void *data) {
  parameter(data) { inout; buffer(size); }
}
status make(uint32_t index, dev *d) {
  parameter(d) { out; element { allocates; } }
  track(create, d);
}
status poke(dev d, double x) {
  async;
  track(modify, d);
}
`

// sentCall is one call as the endpoint saw it, copied out of the frame.
type sentCall struct {
	fn    string
	flags uint16
	args  []marshal.Value
	frame []byte
}

type invokeRig struct {
	desc *cava.Descriptor
	lib  *Lib
	sent []sentCall
}

func newInvokeRig(t *testing.T, ep transport.Endpoint, echo *guesttest.Echo, opts ...Option) *invokeRig {
	t.Helper()
	r := &invokeRig{desc: cava.MustCompile(invokeSpec)}
	echo.Tap = func(c *marshal.Call, frame []byte) {
		fd, _ := r.desc.ByID(c.Func)
		args := make([]marshal.Value, len(c.Args))
		for i, a := range c.Args {
			args[i] = a.Clone()
		}
		r.sent = append(r.sent, sentCall{fn: fd.Name, flags: c.Flags, args: args, frame: append([]byte(nil), frame...)})
	}
	echo.Outs = guesttest.ServerOuts(r.desc)
	r.lib = New(r.desc, ep, opts...)
	t.Cleanup(func() { r.lib.Close() })
	return r
}

func (r *invokeRig) fd(t *testing.T, name string) *cava.FuncDesc {
	t.Helper()
	fd, ok := r.desc.Lookup(name)
	if !ok {
		t.Fatalf("no function %q", name)
	}
	return fd
}

func (r *invokeRig) invoke(t *testing.T, name string, opts CallOptions, args ...marshal.Value) (marshal.Value, []marshal.Value, error) {
	t.Helper()
	ret, err := r.lib.Invoke(r.fd(t, name), &opts, args)
	return ret, args, err
}

func TestInvokeRefusesMalformedArguments(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	echo := guesttest.NewEcho()
	r := newInvokeRig(t, echo, echo)
	h, small := marshal.HandleVal(1), marshal.BytesVal(make([]byte, 10))
	for _, tc := range []struct {
		name string
		fn   string
		args []marshal.Value
	}{
		{"too few arguments", "put", []marshal.Value{h, marshal.Uint(4)}},
		{"too many arguments", "poke", []marshal.Value{h, marshal.Float(1), marshal.Uint(0)}},
		{"handle passed as uint", "poke", []marshal.Value{marshal.Uint(1), marshal.Float(1)}},
		{"float passed as int", "poke", []marshal.Value{h, marshal.Int(1)}},
		{"integer passed as string", "put", []marshal.Value{h, marshal.Str("4"), small, marshal.Uint(1)}},
		{"buffer shorter than its size expression", "put", []marshal.Value{h, marshal.Uint(100), small, marshal.Uint(1)}},
		{"out buffer shorter than its size expression", "fetch", []marshal.Value{h, marshal.Uint(100), small, marshal.Uint(1), marshal.Null()}},
		{"buffer passed as a length", "put", []marshal.Value{h, marshal.Uint(4), marshal.Len(4), marshal.Uint(1)}},
		{"element passed as bytes", "make", []marshal.Value{marshal.Uint(0), small}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := r.invoke(t, tc.fn, CallOptions{}, tc.args...)
			if !errors.Is(err, ErrBadArg) {
				t.Fatalf("err = %v, want ErrBadArg", err)
			}
		})
	}
	if err := r.lib.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(r.sent) != 0 || r.lib.Stats().Calls != 0 {
		t.Fatalf("refused calls reached the endpoint: %d sent, stats %+v", len(r.sent), r.lib.Stats())
	}
}

func TestInvokeNilBufferTravelsAsNull(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	echo := guesttest.NewEcho()
	r := newInvokeRig(t, echo, echo)
	// nil is an absent optional buffer whatever the size expression says; an
	// empty non-nil one is a present buffer of zero bytes.
	if _, _, err := r.invoke(t, "put", CallOptions{}, marshal.HandleVal(1), marshal.Uint(64), marshal.BytesVal(nil), marshal.Uint(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.invoke(t, "put", CallOptions{}, marshal.HandleVal(1), marshal.Uint(0), marshal.BytesVal([]byte{}), marshal.Uint(1)); err != nil {
		t.Fatal(err)
	}
	if got := r.sent[0].args[2].Kind(); got != marshal.KindNull {
		t.Errorf("nil buffer sent as %v, want null", got)
	}
	if got := r.sent[1].args[2]; got.Kind() != marshal.KindBytes || len(got.Bytes()) != 0 {
		t.Errorf("empty buffer sent as %v, want bytes[0]", got)
	}
}

func TestInvokeOutputsAndBufferCut(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	echo := guesttest.NewEcho()
	r := newInvokeRig(t, echo, echo)

	// An out buffer larger than the size expression: the declared bytes are
	// filled, the tail is left alone, and the element comes back in its slot.
	dst := bytes.Repeat([]byte{0x11}, 12)
	_, args, err := r.invoke(t, "fetch", CallOptions{}, marshal.HandleVal(1), marshal.Uint(8), marshal.BytesVal(dst), marshal.Uint(1), marshal.Len(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(bytes.Repeat([]byte{guesttest.OutFill}, 8), 0x11, 0x11, 0x11, 0x11); !bytes.Equal(dst, want) {
		t.Errorf("out buffer = %x, want %x", dst, want)
	}
	if got := args[4]; got.Kind() != marshal.KindUint || got.Uint() != guesttest.OutScalar {
		t.Errorf("out element slot = %v, want %du", got, guesttest.OutScalar)
	}
	if s := r.sent[0]; s.args[2].Kind() != marshal.KindLen || s.args[2].Uint() != 8 || s.args[4].Uint() != 4 {
		t.Errorf("sent out placeholders %v and %v, want len[8] and len[4]", s.args[2], s.args[4])
	}

	// An element the caller does not want stays null, both ways.
	_, args, err = r.invoke(t, "make", CallOptions{}, marshal.Uint(0), marshal.Null())
	if err != nil || !args[1].IsNull() || !r.sent[1].args[1].IsNull() {
		t.Errorf("unwanted element: err %v, slot %v, sent %v", err, args[1], r.sent[1].args[1])
	}
	_, args, err = r.invoke(t, "make", CallOptions{}, marshal.Uint(0), marshal.Len(0))
	if err != nil || args[1].Handle() != guesttest.OutHandle {
		t.Errorf("allocated handle: err %v, slot %v", err, args[1])
	}

	// inout: contents go out and come back into the same memory.
	buf := []byte{1, 2, 3, 4, 9, 9}
	if _, _, err = r.invoke(t, "swap", CallOptions{}, marshal.HandleVal(1), marshal.Uint(4), marshal.BytesVal(buf)); err != nil {
		t.Fatal(err)
	}
	if f := byte(guesttest.InOutFill); !bytes.Equal(buf, []byte{f, f, f, f, 9, 9}) || !bytes.Equal(r.sent[3].args[2].Bytes(), []byte{1, 2, 3, 4}) {
		t.Errorf("inout: buffer %v, sent %v", buf, r.sent[3].args[2].Bytes())
	}
}

func TestInvokeOutputOnNonBlockingCallForcesSync(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	echo := guesttest.NewEcho()
	r := newInvokeRig(t, echo, echo)
	h, nonBlocking := marshal.HandleVal(1), marshal.Uint(0)
	dst := make([]byte, 8)
	for _, tc := range []struct {
		name      string
		out, elem marshal.Value
		async     bool
	}{
		{"no destinations", marshal.BytesVal(nil), marshal.Null(), true},
		{"an out buffer", marshal.BytesVal(dst), marshal.Null(), false},
		{"an out element", marshal.BytesVal(nil), marshal.Len(0), false},
	} {
		before := len(r.sent)
		if _, _, err := r.invoke(t, "fetch", CallOptions{}, h, marshal.Uint(8), tc.out, nonBlocking, tc.elem); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := r.lib.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(r.sent) != before+1 {
			t.Fatalf("%s: %d calls sent", tc.name, len(r.sent)-before)
		}
		if got := r.sent[before].flags&marshal.FlagAsync != 0; got != tc.async {
			t.Errorf("%s on a non-blocking call: async = %v, want %v", tc.name, got, tc.async)
		}
	}
}

func TestInvokeDeadlineFailFast(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	echo := guesttest.NewEcho()
	clk := clock.NewVirtual()
	r := newInvokeRig(t, echo, echo, WithClock(clk))
	past := CallOptions{Deadline: clk.Now().Add(-time.Millisecond)}
	_, _, err := r.invoke(t, "poke", past, marshal.HandleVal(1), marshal.Float(1))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if st := r.lib.Stats(); st.DeadlineFailFast != 1 || st.Calls != 0 || len(r.sent) != 0 {
		t.Fatalf("expired call was not failed locally: %+v, %d sent", st, len(r.sent))
	}
	if _, _, err := r.invoke(t, "poke", CallOptions{Timeout: time.Second}, marshal.HandleVal(1), marshal.Float(1)); err != nil {
		t.Fatal(err)
	}
}

// vecEndpoint is an echo endpoint with a vectored send path, as TCP has.
type vecEndpoint struct {
	*guesttest.Echo
	vecSends int
	borrowed int
}

func (e *vecEndpoint) SendVec(parts [][]byte, total int) error {
	e.vecSends++
	frame := make([]byte, 0, total)
	for i, p := range parts {
		if i%2 == 1 {
			e.borrowed += len(p)
		}
		frame = append(frame, p...)
	}
	return e.Echo.Send(frame)
}

func TestInvokeSelectsZeroCopyPaths(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	big := bytes.Repeat([]byte{0x5A}, marshal.SegmentThreshold)
	h, blocking := marshal.HandleVal(1), marshal.Uint(1)
	size := marshal.Uint(uint64(len(big)))

	t.Run("vectored send", func(t *testing.T) {
		ep := &vecEndpoint{Echo: guesttest.NewEcho()}
		r := newInvokeRig(t, ep, ep.Echo)
		// Large synchronous in-buffer: lent to the vectored send.
		if _, _, err := r.invoke(t, "put", CallOptions{}, h, size, marshal.BytesVal(big), blocking); err != nil {
			t.Fatal(err)
		}
		if ep.vecSends != 1 || ep.borrowed != len(big) || r.lib.Stats().BytesBorrowed != uint64(len(big)) {
			t.Fatalf("large sync in-buffer: %d vectored sends lending %d bytes, stats %+v", ep.vecSends, ep.borrowed, r.lib.Stats())
		}
		if !bytes.Equal(r.sent[0].args[2].Bytes(), big) {
			t.Fatal("receiver did not see the lent payload in place")
		}
		// Small, or asynchronous: copied into the frame.
		if _, _, err := r.invoke(t, "put", CallOptions{}, h, marshal.Uint(8), marshal.BytesVal(big[:8]), blocking); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.invoke(t, "put", CallOptions{}, h, size, marshal.BytesVal(big), marshal.Uint(0)); err != nil {
			t.Fatal(err)
		}
		if err := r.lib.Flush(); err != nil {
			t.Fatal(err)
		}
		if ep.vecSends != 1 || len(r.sent) != 3 {
			t.Fatalf("small / async payloads took the vectored path: %d vectored sends, %d calls", ep.vecSends, len(r.sent))
		}
	})

	t.Run("registered buffer", func(t *testing.T) {
		echo := guesttest.NewEcho()
		reg := transport.NewBufRegistry()
		r := newInvokeRig(t, echo, echo, WithBufRegistry(reg))
		region := make([]byte, 4*len(big))
		id := r.lib.RegisterBuffer(region)
		src, dst := region[len(big):2*len(big)], region[2*len(big):3*len(big)]
		copy(src, big)
		if _, _, err := r.invoke(t, "put", CallOptions{}, h, size, marshal.BytesVal(src), blocking); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.invoke(t, "fetch", CallOptions{}, h, size, marshal.BytesVal(dst), blocking, marshal.Null()); err != nil {
			t.Fatal(err)
		}
		in, out := r.sent[0].args[2], r.sent[1].args[2]
		if in.Kind() != marshal.KindRegRef || in.Ref() != (marshal.RegRef{ID: id, Off: uint64(len(big))}) || in.Uint() != uint64(len(big)) {
			t.Errorf("registered in-buffer sent as %v", in)
		}
		if out.Kind() != marshal.KindRegRef || out.Ref() != (marshal.RegRef{ID: id, Off: 2 * uint64(len(big))}) {
			t.Errorf("registered out-buffer sent as %v", out)
		}
		if st := r.lib.Stats(); st.BytesBorrowed != 2*uint64(len(big)) || st.BytesCopied != 0 {
			t.Errorf("stats %+v, want both payloads borrowed", st)
		}
		// An asynchronous call must not lend the region: the borrow would
		// outlive the call.
		if _, _, err := r.invoke(t, "put", CallOptions{}, h, size, marshal.BytesVal(src), marshal.Uint(0)); err != nil {
			t.Fatal(err)
		}
		if err := r.lib.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := r.sent[2].args[2].Kind(); got != marshal.KindBytes {
			t.Errorf("async registered buffer sent as %v, want bytes", got)
		}
	})

	t.Run("retention disables both", func(t *testing.T) {
		ep := &vecEndpoint{Echo: guesttest.NewEcho()}
		reg := transport.NewBufRegistry()
		r := newInvokeRig(t, ep, ep.Echo, WithBufRegistry(reg), WithFailover(FailoverPolicy{}))
		region := append([]byte(nil), big...)
		r.lib.RegisterBuffer(region)
		if _, _, err := r.invoke(t, "put", CallOptions{}, h, size, marshal.BytesVal(region), blocking); err != nil {
			t.Fatal(err)
		}
		if got := r.sent[0].args[2].Kind(); got != marshal.KindBytes || ep.vecSends != 0 {
			t.Fatalf("with retention on: sent as %v, %d vectored sends", got, ep.vecSends)
		}
	})
}

// batchTap records every batch frame as the library hands it to the
// endpoint — its bytes and the capacity of the buffer it was built in.
type batchTap struct {
	*guesttest.Echo
	frames [][]byte
	caps   []int
}

func (e *batchTap) Send(frame []byte) error {
	e.frames = append(e.frames, append([]byte(nil), frame...))
	e.caps = append(e.caps, cap(frame))
	return e.Echo.Send(frame)
}

// vecBatchTap is batchTap with a vectored send path; the capacity recorded
// is that of the physical frame the borrowed payloads are spliced into.
type vecBatchTap struct{ batchTap }

func (e *vecBatchTap) SendVec(parts [][]byte, total int) error {
	frame := make([]byte, 0, total)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	e.frames = append(e.frames, frame)
	e.caps = append(e.caps, cap(parts[0]))
	return e.Echo.Send(append([]byte(nil), frame...))
}

// A call that does not fit the open batch frame moves the batch to a larger
// pooled frame; append must never regrow it. What goes on the wire is what
// encoding each call on its own and batching the results gives — the frame
// the library sent when it let append grow it — and the buffer it travels in
// has a framebuf class capacity, which an append-grown one (rounded up to
// whole pages) has not.
func TestInvokeOutgrownBatchFrameMovesToAPooledOne(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	payload := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C, 0xC3}, 1<<18) // 1 MiB
	payload[0], payload[len(payload)-1] = 1, 2
	copied := &batchTap{Echo: guesttest.NewEcho()}
	lent := &vecBatchTap{batchTap{Echo: guesttest.NewEcho()}}
	for _, tc := range []struct {
		name     string
		ep       transport.Endpoint
		tap      *batchTap
		borrowed uint64
	}{
		{"copied into the frame", copied, copied, 0},
		{"lent to a vectored send", lent, &lent.batchTap, uint64(len(payload))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newInvokeRig(t, tc.ep, tc.tap.Echo)
			h := marshal.HandleVal(7)
			for i := 0; i < 4; i++ {
				if _, _, err := r.invoke(t, "poke", CallOptions{}, h, marshal.Float(float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := r.invoke(t, "put", CallOptions{}, h, marshal.Uint(uint64(len(payload))), marshal.BytesVal(payload), marshal.Uint(1)); err != nil {
				t.Fatal(err)
			}
			if len(tc.tap.frames) != 1 || len(r.sent) != 5 {
				t.Fatalf("%d frames carrying %d calls, want the five calls in one batch frame", len(tc.tap.frames), len(r.sent))
			}
			if got := r.lib.Stats().BytesBorrowed; got != tc.borrowed {
				t.Fatalf("BytesBorrowed = %d, want %d", got, tc.borrowed)
			}
			var calls [][]byte
			for i, s := range r.sent {
				want := "poke"
				if i == 4 {
					want = "put"
				}
				c, err := marshal.DecodeCall(s.frame)
				if err != nil || s.fn != want || c.Seq != uint64(i+1) {
					t.Fatalf("call %d of the batch: %s seq %d (%v), want %s seq %d", i, s.fn, c.Seq, err, want, i+1)
				}
				calls = append(calls, marshal.EncodeCall(c))
			}
			if !bytes.Equal(r.sent[4].args[2].Bytes(), payload) {
				t.Fatal("the write's payload did not arrive intact")
			}
			if want := marshal.EncodeBatch(calls); !bytes.Equal(tc.tap.frames[0], want) {
				t.Fatalf("batch frame of %d bytes differs from the calls encoded one by one and batched (%d bytes)", len(tc.tap.frames[0]), len(want))
			}
			// A class capacity is (4..7) << k: nothing below its top three bits.
			if c := tc.tap.caps[0]; c&(1<<(bits.Len(uint(c))-3)-1) != 0 {
				t.Fatalf("batch frame capacity %d is not a framebuf class size: append regrew the frame", c)
			}
		})
	}
}

// A call made through Invoke is retained like any other: after a recovery
// notice the library resubmits what the checkpoint does not cover, byte for
// byte apart from the epoch and the resubmit flag.
func TestInvokeRetainsForResubmission(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	echo := guesttest.NewEcho()
	r := newInvokeRig(t, echo, echo, WithFailover(FailoverPolicy{}))
	h := marshal.HandleVal(1)
	if _, _, err := r.invoke(t, "poke", CallOptions{}, h, marshal.Float(1.5)); err != nil { // seq 1, async
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4}
	if _, _, err := r.invoke(t, "put", CallOptions{}, h, marshal.Uint(4), marshal.BytesVal(payload), marshal.Uint(1)); err != nil { // seq 2, sync
		t.Fatal(err)
	}
	payload[0] = 0xFF // the retained frame must hold the bytes as they were sent
	first := append([]sentCall(nil), r.sent...)
	if len(first) != 2 {
		t.Fatalf("%d calls sent, want 2", len(first))
	}

	echo.Inject(marshal.EncodeControl(marshal.CtrlRecover, 1, 0))
	waitFor(t, "resubmission", func() bool { return r.lib.Stats().ResubmittedCalls >= 2 })
	r.lib.mu.Lock() // resubmit holds mu until its sends are done
	again := r.sent[2:]
	r.lib.mu.Unlock()
	if len(again) != 2 {
		t.Fatalf("%d calls resubmitted, want 2", len(again))
	}
	for i, s := range again {
		want := append([]byte(nil), first[i].frame...)
		marshal.PatchCallResubmit(want, 1)
		if !bytes.Equal(s.frame, want) {
			t.Errorf("resubmitted %s differs from the frame first sent", s.fn)
		}
	}
}

// The retained window packs bodies into pooled chunks and returns a chunk
// to framebuf once the window has lost every body in it. A window over
// several chunks, one of them a body larger than a chunk, is trimmed
// through the middle of its oldest chunk — by a checkpoint notice, then by
// overflowing Retain — and every chunk-sized buffer framebuf will hand out
// is scribbled over before the recovery: each resubmitted body must still
// be the one first sent. A chunk released while the window still held one
// of its bodies would be drawn and overwritten here.
func TestRetainedChunksSurviveRecycling(t *testing.T) {
	const small, big = 20 << 10, 256 << 10 // three small bodies to a chunk
	sizes := []int{small, small, small, small, small, small, small, small, big, small, small, small, small}
	const w = 2 // either trim stops inside the oldest chunk, which keeps seq 3
	for _, tc := range []struct {
		name       string
		retain     int
		checkpoint bool
	}{
		{"checkpoint trims", 0, true},
		{"overflow trims", len(sizes) - w, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaktest.NoGoroutineLeaks(t)
			echo := guesttest.NewEcho()
			r := newInvokeRig(t, echo, echo, WithFailover(FailoverPolicy{Retain: tc.retain}))
			h := marshal.HandleVal(1)
			for i, n := range sizes {
				data := bytes.Repeat([]byte{byte(i + 1)}, n)
				if _, _, err := r.invoke(t, "put", CallOptions{}, h, marshal.Uint(uint64(n)), marshal.BytesVal(data), marshal.Uint(0)); err != nil {
					t.Fatal(err)
				}
				clear(data) // the window holds its own copy
			}
			if err := r.lib.Flush(); err != nil {
				t.Fatal(err)
			}
			r.lib.mu.Lock()
			chunks := len(r.lib.fo.chunks)
			r.lib.mu.Unlock()
			if chunks < 3 {
				t.Fatalf("window spans %d chunks, want at least 3", chunks)
			}
			first := append([]sentCall(nil), r.sent...)

			var covered uint64
			if tc.checkpoint {
				covered = w
				echo.Inject(marshal.EncodeControl(marshal.CtrlCheckpoint, 0, covered))
			} else if got := r.lib.Stats().RetainDropped; got != w {
				t.Fatalf("RetainDropped = %d, want %d", got, w)
			}
			waitFor(t, "trim", func() bool {
				r.lib.mu.Lock()
				defer r.lib.mu.Unlock()
				return r.lib.fo.live()[0].seq == w+1
			})

			var drawn [][]byte
			for _, n := range []int{retainChunk, big + 1024} {
				for i := 0; i < 8; i++ {
					b := framebuf.Get(n)
					b = b[:cap(b)]
					for j := range b {
						b[j] = 0xFF
					}
					drawn = append(drawn, b)
				}
			}
			for _, b := range drawn {
				framebuf.Put(b)
			}

			want := uint64(len(sizes) - w)
			echo.Inject(marshal.EncodeControl(marshal.CtrlRecover, 1, covered))
			waitFor(t, "resubmission", func() bool { return r.lib.Stats().ResubmittedCalls >= want })
			r.lib.mu.Lock() // resubmit holds mu until its sends are done
			again := r.sent[len(first):]
			r.lib.mu.Unlock()
			if uint64(len(again)) != want {
				t.Fatalf("the endpoint decoded %d resubmitted calls, want %d", len(again), want)
			}
			for i, s := range again {
				exp := append([]byte(nil), first[w+i].frame...)
				marshal.PatchCallResubmit(exp, 1)
				if !bytes.Equal(s.frame, exp) {
					t.Errorf("resubmitted call %d (%d bytes) differs from the frame first sent", w+i+1, len(s.frame))
				}
			}
		})
	}
}

// waitFor polls done until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
