package server

import (
	"fmt"
	"sync"
	"time"

	"ava/internal/cava"
	"ava/internal/framebuf"
	"ava/internal/marshal"
	"ava/internal/spec"
	"ava/internal/transport"
)

// Invocation is one decoded API call being executed by a handler.
//
// The dispatcher decodes the Call frame, verifies the argument vector
// against the descriptor, allocates space for output buffers, and hands the
// Invocation to the registered handler. The handler reads arguments through
// the typed accessors, performs the silo operation, and records results with
// the Set* methods; the dispatcher then assembles the Reply.
//
// An Invocation belongs to the handler only until the handler returns: the
// dispatcher reuses it (and the argument vector behind the accessors) for a
// later call, so a handler must not retain it or hand it to a goroutine that
// outlives the call. The one exception is the deadline timer the dispatcher
// itself arms, which may still be firing after the call — an Invocation
// that was armed is never reused.
type Invocation struct {
	Desc *cava.FuncDesc
	Ctx  *Context

	args   []marshal.Value // verified arguments; out buffers pre-allocated
	outs   []marshal.Value // out-element results, indexed by out slot
	ret    marshal.Value
	env    spec.Env
	pooled [][]byte // out buffers drawn from framebuf; callSlot.release recycles them

	// Cancellation: armed by the dispatcher when the call carries a
	// deadline. cancel is closed at most once, by the deadline timer or an
	// explicit Cancel.
	deadline  time.Time
	cancel    chan struct{}
	cancelMu  sync.Mutex
	cancelErr error
	canceled  bool
}

// Deadline returns the call's deadline in the server's clock domain; ok is
// false when the call carries none.
func (inv *Invocation) Deadline() (t time.Time, ok bool) {
	return inv.deadline, !inv.deadline.IsZero()
}

// Done returns a channel closed when the call should stop: its deadline
// expired or it was canceled. A long-running handler selects on it beside
// its device work and returns inv.Err() when it fires. For a call without
// a deadline, Done returns nil, which blocks forever in a select.
func (inv *Invocation) Done() <-chan struct{} { return inv.cancel }

// Err returns the cancellation cause (ErrDeadlineExceeded or ErrCanceled)
// once Done is closed, nil before.
func (inv *Invocation) Err() error {
	inv.cancelMu.Lock()
	defer inv.cancelMu.Unlock()
	return inv.cancelErr
}

// Cancel aborts the call with ErrCanceled; a no-op for calls without a
// cancellation signal armed or already canceled.
func (inv *Invocation) Cancel() { inv.cancelWith(ErrCanceled) }

// arm installs the cancellation signal for a call with a deadline.
func (inv *Invocation) arm(deadline time.Time) {
	inv.deadline = deadline
	inv.cancel = make(chan struct{})
}

// armed reports whether arm was called: a deadline timer may hold a
// reference to inv, so the dispatcher must not reuse it.
func (inv *Invocation) armed() bool { return inv.cancel != nil }

// reset readies a reused, never-armed Invocation for the next call. Fields
// are cleared one by one (the struct holds a mutex and must not be copied
// over); the args, outs and pooled slices keep their backing arrays.
func (inv *Invocation) reset(fd *cava.FuncDesc, ctx *Context) {
	inv.Desc, inv.Ctx = fd, ctx
	inv.args, inv.outs, inv.pooled = inv.args[:0], inv.outs[:0], inv.pooled[:0]
	inv.ret = marshal.Value{}
	inv.env = nil
}

func (inv *Invocation) cancelWith(err error) {
	inv.cancelMu.Lock()
	defer inv.cancelMu.Unlock()
	if inv.cancel == nil || inv.canceled {
		return
	}
	inv.canceled = true
	inv.cancelErr = err
	close(inv.cancel)
}

// Arg returns the raw argument value at index i.
func (inv *Invocation) Arg(i int) marshal.Value { return inv.args[i] }

// Env returns the scalar-argument environment for expression evaluation
// (built lazily; the dispatch hot path never needs it).
func (inv *Invocation) Env() spec.Env {
	if inv.env == nil {
		inv.env = inv.Desc.Env(inv.args)
	}
	return inv.env
}

// Handle returns the handle argument at index i (0 if null).
func (inv *Invocation) Handle(i int) marshal.Handle {
	if inv.args[i].Kind() == marshal.KindNull {
		return 0
	}
	return inv.args[i].Handle()
}

// Uint returns the unsigned scalar at index i, converting bools and ints.
func (inv *Invocation) Uint(i int) uint64 {
	v := inv.args[i]
	switch v.Kind() {
	case marshal.KindUint, marshal.KindHandle, marshal.KindLen:
		return v.Uint()
	case marshal.KindInt:
		return uint64(v.Int())
	case marshal.KindBool:
		if v.Bool() {
			return 1
		}
	}
	return 0
}

// Int returns the signed scalar at index i.
func (inv *Invocation) Int(i int) int64 {
	v := inv.args[i]
	switch v.Kind() {
	case marshal.KindInt:
		return v.Int()
	case marshal.KindUint, marshal.KindHandle, marshal.KindLen:
		return int64(v.Uint())
	case marshal.KindBool:
		if v.Bool() {
			return 1
		}
	}
	return 0
}

// Bool returns the boolean interpretation of the scalar at index i.
func (inv *Invocation) Bool(i int) bool { return inv.Uint(i) != 0 }

// Float returns the float scalar at index i.
func (inv *Invocation) Float(i int) float64 {
	f, _ := inv.args[i].AsFloat()
	return f
}

// Str returns the string argument at index i.
func (inv *Invocation) Str(i int) string { return inv.args[i].Str() }

// Bytes returns the buffer at index i. For in/inout buffers it holds the
// guest's data; for out buffers it is zeroed space of the declared size for
// the handler to fill. Nil for null buffers.
//
// The out space is recycled (internal/framebuf): it last held some other
// call's output, possibly another VM's, and is cleared before the handler
// sees it; whatever the handler leaves untouched reaches the guest as
// zeros. It goes back to the pool once the reply has been encoded, so —
// like the Invocation itself — it is the handler's only until it returns.
func (inv *Invocation) Bytes(i int) []byte { return inv.args[i].Bytes() }

// IsNull reports whether the guest passed a null pointer at index i.
func (inv *Invocation) IsNull(i int) bool { return inv.args[i].Kind() == marshal.KindNull }

// outSlot maps a parameter index to its position in Reply.Outs.
func (inv *Invocation) outSlot(i int) int {
	slot := 0
	for j := 0; j < i; j++ {
		if inv.Desc.Params[j].Out() {
			slot++
		}
	}
	return slot
}

// SetOutHandle stores a freshly created object handle into the out-element
// parameter at index i (the `element { allocates; }` pattern).
func (inv *Invocation) SetOutHandle(i int, h marshal.Handle) {
	inv.outs[inv.outSlot(i)] = marshal.HandleVal(h)
}

// SetOutUint stores an unsigned scalar result into the out element at i.
func (inv *Invocation) SetOutUint(i int, v uint64) {
	inv.outs[inv.outSlot(i)] = marshal.Uint(v)
}

// SetOutInt stores a signed scalar result into the out element at i.
func (inv *Invocation) SetOutInt(i int, v int64) {
	inv.outs[inv.outSlot(i)] = marshal.Int(v)
}

// SetOutFloat stores a float result into the out element at i.
func (inv *Invocation) SetOutFloat(i int, v float64) {
	inv.outs[inv.outSlot(i)] = marshal.Float(v)
}

// SetRet sets the call's return value.
func (inv *Invocation) SetRet(v marshal.Value) { inv.ret = v }

// SetStatus sets an integer status return (the cl_int pattern).
func (inv *Invocation) SetStatus(v int64) { inv.ret = marshal.Int(v) }

// SetRetHandle sets a handle return value.
func (inv *Invocation) SetRetHandle(h marshal.Handle) { inv.ret = marshal.HandleVal(h) }

// Ret returns the current return value.
func (inv *Invocation) Ret() marshal.Value { return inv.ret }

// OOM is the error a handler returns when the silo reported the API's
// allocation-failure status (`oom(V)` on a status type): the dispatcher lets
// the registry's OnOOM policy make room and runs the handler once more (§4.3).
func (inv *Invocation) OOM() error {
	return fmt.Errorf("%s: %w", inv.Desc.Name, ErrDeviceOOM)
}

// BadHandle is the error for a handle argument that names no live object of
// its type, in a function with no status value to say so in.
func (inv *Invocation) BadHandle(i int) error {
	return fmt.Errorf("server: %s(%s): no such object", inv.Desc.Name, inv.Desc.Params[i].Name)
}

// finishOuts assembles Reply.Outs in parameter order into dst[:0]: buffers
// contribute their (possibly handler-written) bytes, elements contribute
// the values stored by Set*; null arguments stay null. A function without
// outputs yields nil.
func (inv *Invocation) finishOuts(dst []marshal.Value) []marshal.Value {
	if inv.Desc.NumOuts == 0 {
		return nil
	}
	outs := dst[:0]
	slot := 0
	for i := range inv.Desc.Params {
		pd := &inv.Desc.Params[i]
		if !pd.Out() {
			continue
		}
		switch {
		case inv.args[i].Kind() == marshal.KindNull:
			outs = append(outs, marshal.Null())
		case pd.IsBuffer:
			outs = append(outs, marshal.BytesVal(inv.args[i].Bytes()))
		default: // element
			outs = append(outs, inv.outs[slot])
		}
		slot++
	}
	return outs
}

// recycleOuts hands the out space prepare drew back to the frame pool. Only
// callSlot.release calls it, once nothing reads the buffers any more.
func (inv *Invocation) recycleOuts() {
	for i, b := range inv.pooled {
		framebuf.Put(b)
		inv.pooled[i] = nil
	}
	inv.pooled = inv.pooled[:0]
}

// prepare checks a decoded argument vector against the descriptor and
// draws out-buffer space, filling inv (reset for fd beforehand). It
// returns an error for malformed or mendacious frames (wrong arity, buffer
// lengths disagreeing with the size expressions, out buffers whose reply
// could not be framed) — the server must not trust the guest library, and
// an out length is the guest's word until checked. Every out buffer is
// pooled space, cleared.
func (inv *Invocation) prepare(d *cava.Descriptor, args []marshal.Value) error {
	fd := inv.Desc
	if len(args) != len(fd.Params) {
		return fmt.Errorf("server: %s: %d args, want %d", fd.Name, len(args), len(fd.Params))
	}
	// Work on a copy: out-buffer placeholders are replaced with allocated
	// space, and the caller's slice stays the decoded wire form.
	inv.args = append(inv.args[:0], args...)
	args = inv.args
	inv.outs = inv.outs[:0]
	for i := 0; i < fd.NumOuts; i++ {
		inv.outs = append(inv.outs, marshal.Value{})
	}
	outBytes := 0 // out-buffer space drawn so far: all of it travels in one reply frame
	for i := range fd.Params {
		pd := &fd.Params[i]
		v := &args[i]
		if !pd.IsPointer {
			if err := pd.CheckScalar(v); err != nil {
				return fmt.Errorf("server: %s(%s): %v", fd.Name, pd.Name, err)
			}
			continue
		}
		if v.Kind() == marshal.KindNull {
			continue // optional pointer omitted by the guest
		}
		want, err := fd.BufferBytesArgs(i, d.API, args)
		if err != nil {
			return fmt.Errorf("server: %s(%s): %v", fd.Name, pd.Name, err)
		}
		switch {
		case pd.In() && pd.Out(): // inout: bytes both ways
			if v.Kind() != marshal.KindBytes || len(v.Bytes()) != want {
				return fmt.Errorf("server: %s(%s): inout buffer %d bytes, want %d", fd.Name, pd.Name, len(v.Bytes()), want)
			}
		case pd.In():
			if v.Kind() != marshal.KindBytes || len(v.Bytes()) != want {
				return fmt.Errorf("server: %s(%s): in buffer %d bytes, want %d", fd.Name, pd.Name, len(v.Bytes()), want)
			}
		default: // out: guest sends a length placeholder; allocate space
			if v.Kind() != marshal.KindLen {
				return fmt.Errorf("server: %s(%s): out parameter sent as %v", fd.Name, pd.Name, v.Kind())
			}
			if int(v.Uint()) != want {
				return fmt.Errorf("server: %s(%s): out length %d, want %d", fd.Name, pd.Name, v.Uint(), want)
			}
			if pd.IsBuffer {
				if want > transport.MaxFrame-outBytes {
					return fmt.Errorf("server: %s(%s): %d bytes of out buffers exceed the %d-byte frame limit", fd.Name, pd.Name, outBytes+want, transport.MaxFrame)
				}
				outBytes += want
				buf := framebuf.GetLen(want)
				clear(buf) // recycled: it may last have held another VM's data
				inv.pooled = append(inv.pooled, buf)
				*v = marshal.BytesVal(buf)
			}
			// Out elements keep the placeholder; handlers use SetOut*.
		}
	}
	return nil
}
