package stacktest

import (
	"encoding/binary"
	"reflect"
	"testing"

	"ava/internal/cava"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/spec"
)

// handleArg is the wire form of handle parameter pd holding h: the handle
// itself, or a buffer of n copies of it for a handle array.
func handleArg(pd *cava.ParamDesc, old marshal.Value, h marshal.Handle) marshal.Value {
	if !pd.IsPointer {
		return marshal.HandleVal(h)
	}
	buf := make([]byte, len(old.Bytes()))
	for off := 0; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], uint64(h))
	}
	return marshal.BytesVal(buf)
}

// apiStatus reads a reply's API status from where the function reports it:
// the return value, or the errcode out element of a handle-returning create.
func apiStatus(desc *cava.Descriptor, fd *cava.FuncDesc, reply *marshal.Reply) (int64, bool) {
	if fd.HasSuccess {
		return reply.Ret.AsInt()
	}
	slot := 0
	for i := range fd.Params {
		pd := &fd.Params[i]
		if !pd.Out() {
			continue
		}
		if td := desc.API.Types[pd.TypeName]; pd.IsElement && td != nil && td.Success != nil && slot < len(reply.Outs) {
			return reply.Outs[slot].AsInt()
		}
		slot++
	}
	return 0, false
}

// For every function of every generated API server and every handle it
// takes — by value or in an array — an unknown handle and a live handle of
// another type each come back as that handle type's declared invalid status:
// not a panic, not a failed call, and the VM's handle table as it was. The
// handle parameters before the one under test hold live handles of their own
// type, so it is that parameter's check that answers; the silo is never
// reached.
func TestGeneratedServersRefuseBadHandlesAsDeclared(t *testing.T) {
	for _, g := range generatedLibs {
		desc := cava.MustCompile(g.spec)
		reg := server.NewRegistry(desc)
		g.bind(reg)
		srv := server.New(reg)
		ctx := srv.Context(1, "vm")
		live := make(map[string]marshal.Handle)
		for typeName, obj := range g.objects {
			live[typeName] = ctx.Handles.Insert(obj)
		}
		table := ctx.Handles.Handles()
		checked := 0
		for _, fd := range desc.Funcs {
			for i := range fd.Params {
				pd := &fd.Params[i]
				if pd.Kind != spec.KindHandle || pd.Out() {
					continue
				}
				want, err := spec.EvalExpr(desc.API.Handles[pd.TypeName].Invalid, desc.API, nil)
				if err != nil {
					t.Fatalf("%s: handle %s declares no invalid status: %v", g.name, pd.TypeName, err)
				}
				bad := map[string]marshal.Handle{"an unknown handle": 9999}
				for other, h := range live {
					if other != pd.TypeName && desc.API.Handles[pd.TypeName].GoType != "" {
						bad["a live "+other] = h
					}
				}
				for what, h := range bad {
					args, ok := SynthesizeArgs(desc, fd, 0)
					if !ok {
						t.Fatalf("%s %s: could not synthesize arguments", g.name, fd.Name)
					}
					for j := range fd.Params {
						if pj := &fd.Params[j]; pj.Kind == spec.KindHandle && !pj.Out() {
							args[j] = handleArg(pj, args[j], live[pj.TypeName])
						}
					}
					args[i] = handleArg(pd, args[i], h)
					reply := srv.Execute(ctx, &marshal.Call{Seq: 1, Func: fd.ID, Args: args})
					if reply == nil || reply.Status == marshal.StatusInternal {
						t.Errorf("%s %s(%s = %s): call failed: %+v", g.name, fd.Name, pd.Name, what, reply)
						continue
					}
					if got, ok := apiStatus(desc, fd, reply); !ok || got != want {
						t.Errorf("%s %s(%s = %s): status %d (present %v), want %s's invalid status %d", g.name, fd.Name, pd.Name, what, got, ok, pd.TypeName, want)
					}
					if now := ctx.Handles.Handles(); !reflect.DeepEqual(now, table) {
						t.Fatalf("%s %s(%s = %s): handle table changed: %v -> %v", g.name, fd.Name, pd.Name, what, table, now)
					}
					checked++
				}
			}
		}
		t.Logf("%s: %d (function, handle parameter, bad handle) rows", g.name, checked)
	}
}
