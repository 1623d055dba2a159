// Package stacktest provides cross-API test helpers: adversarial sweeps
// that every silo binding must survive. It is imported only from tests.
package stacktest

import (
	"math/rand"
	"testing"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/spec"
	"ava/internal/transport"
)

// SweepBogusHandles calls every function in the descriptor through the API
// server with well-formed frames whose handles are dangling and whose
// scalars are small arbitrary values. Contract: the server must answer
// every synchronous call with a reply (any status) and must never crash —
// a malicious or buggy guest cannot take the API server down (§4.1's
// isolation requirement).
func SweepBogusHandles(t *testing.T, srv *server.Server) {
	t.Helper()
	desc := srv.Registry().Desc
	ctx := srv.Context(0xBAD, "adversary")
	for _, fd := range desc.Funcs {
		args, ok := SynthesizeArgs(desc, fd, 9999)
		if !ok {
			t.Errorf("%s: could not synthesize arguments", fd.Name)
			continue
		}
		call := &marshal.Call{Seq: 1, Func: fd.ID, Args: args}
		reply := srv.Execute(ctx, call)
		if reply == nil {
			t.Errorf("%s: no reply to a synchronous call", fd.Name)
		}
	}
}

// SynthesizeArgs builds a type-correct argument vector for fd: scalars are
// small constants, handles take the given (presumably dangling) value,
// buffers are sized to satisfy the specification's size expressions.
func SynthesizeArgs(desc *cava.Descriptor, fd *cava.FuncDesc, handle marshal.Handle) ([]marshal.Value, bool) {
	args := make([]marshal.Value, len(fd.Params))
	// Scalars first so buffer size expressions evaluate.
	for i := range fd.Params {
		pd := &fd.Params[i]
		if pd.IsPointer {
			continue
		}
		switch pd.Kind {
		case spec.KindHandle:
			args[i] = marshal.HandleVal(handle)
		case spec.KindString:
			args[i] = marshal.Str("bogus")
		case spec.KindBool:
			args[i] = marshal.Bool(true)
		case spec.KindFloat:
			args[i] = marshal.Float(1)
		case spec.KindInt:
			args[i] = marshal.Int(2)
		default:
			args[i] = marshal.Uint(2)
		}
	}
	for i := range fd.Params {
		pd := &fd.Params[i]
		if !pd.IsPointer {
			continue
		}
		want, err := fd.BufferBytesArgs(i, desc.API, args)
		if err != nil {
			return nil, false
		}
		if pd.In() {
			args[i] = marshal.BytesVal(make([]byte, want))
		} else {
			args[i] = marshal.Len(uint64(want))
		}
	}
	return args, true
}

// hugeLens are the lengths a guest lies with: one more than a frame can
// carry, more than the machine has, and the neighbourhood of where an
// element count times an element size wraps an int.
var hugeLens = []uint64{transport.MaxFrame + 1, 1 << 44, 1 << 61, 1<<62 + 1, 1<<63 - 1, 1 << 63, 1<<64 - 1}

// lyingArgs is a type-correct vector for fd — it passes every kind check —
// in which every integer scalar and every out placeholder is the same huge
// length, so size expressions and the placeholders they are checked against
// agree on it.
func lyingArgs(desc *cava.Descriptor, fd *cava.FuncDesc, huge uint64) ([]marshal.Value, bool) {
	args, ok := SynthesizeArgs(desc, fd, 3)
	for i := range args {
		switch pd := &fd.Params[i]; {
		case !pd.IsPointer && (pd.Kind == spec.KindInt || pd.Kind == spec.KindUint):
			args[i] = marshal.Uint(huge)
		case args[i].Kind() == marshal.KindLen:
			args[i] = marshal.Len(huge)
		}
	}
	return args, ok
}

// SweepRandomArgs hammers every function with structurally random argument
// vectors (wrong kinds, wrong arity) and with well-formed ones that lie about
// lengths (huge, overflowing). Contract: the server denies or fails each call
// gracefully — no panic escapes, no allocation of what a length merely
// claims, every sync call gets a reply.
func SweepRandomArgs(t *testing.T, srv *server.Server, rounds int) {
	t.Helper()
	desc := srv.Registry().Desc
	ctx := srv.Context(0xF00, "fuzzer")
	r := rand.New(rand.NewSource(1))
	randValue := func() marshal.Value {
		switch r.Intn(8) {
		case 0:
			return marshal.Null()
		case 1:
			return marshal.Int(r.Int63() - r.Int63())
		case 2:
			return marshal.Uint(r.Uint64())
		case 3:
			return marshal.Float(r.NormFloat64())
		case 4:
			return marshal.Bool(r.Intn(2) == 0)
		case 5:
			return marshal.Str("fuzz")
		case 6:
			return marshal.BytesVal(make([]byte, r.Intn(64)))
		default:
			return marshal.HandleVal(marshal.Handle(r.Uint64() % 64))
		}
	}
	for round := 0; round < rounds; round++ {
		for _, fd := range desc.Funcs {
			n := len(fd.Params)
			if r.Intn(4) == 0 {
				n = r.Intn(len(fd.Params) + 2) // wrong arity sometimes
			}
			args := make([]marshal.Value, n)
			for i := range args {
				args[i] = randValue()
			}
			if r.Intn(4) == 0 {
				if lying, ok := lyingArgs(desc, fd, hugeLens[r.Intn(len(hugeLens))]); ok {
					args = lying
				}
			}
			reply := srv.Execute(ctx, &marshal.Call{Seq: 1, Func: fd.ID, Args: args})
			if reply == nil {
				t.Fatalf("%s: no reply under fuzzing", fd.Name)
			}
		}
	}
}
