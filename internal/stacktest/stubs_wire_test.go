package stacktest

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"ava/internal/cava"
	"ava/internal/cl"
	"ava/internal/clock"
	"ava/internal/gen/toydev"
	"ava/internal/guest"
	"ava/internal/guest/guesttest"
	"ava/internal/leaktest"
	"ava/internal/marshal"
	"ava/internal/mvnc"
	"ava/internal/qat"
	"ava/internal/server"
	"ava/internal/spec"
)

// generatedLibs are the four checked-in outputs of cava.Generate: the guest
// half (new), the server half (bind), and one silo object per handle type
// for tests that need a live handle of each.
var generatedLibs = []struct {
	name    string
	spec    string
	new     func(*guest.Lib) any
	bind    func(*server.Registry)
	objects map[string]any
}{
	{"opencl", cl.Spec, func(l *guest.Lib) any { return cl.NewStubs(l) },
		func(r *server.Registry) { cl.BindServer(r, cl.NewSilo(cl.Config{})) },
		map[string]any{
			"cl_platform_id": &cl.Platform{}, "cl_device_id": &cl.Device{}, "cl_context": &cl.Context{},
			"cl_command_queue": &cl.Queue{}, "cl_mem": &cl.Mem{}, "cl_program": &cl.Program{},
			"cl_kernel": &cl.Kernel{}, "cl_event": &cl.Event{},
		}},
	{"mvnc", mvnc.Spec, func(l *guest.Lib) any { return mvnc.NewStubs(l) },
		func(r *server.Registry) { mvnc.BindServer(r, mvnc.NewSilo(mvnc.Config{})) },
		map[string]any{"ncs_device": &mvnc.Device{}, "ncs_graph": &mvnc.Graph{}}},
	{"qat", qat.Spec, func(l *guest.Lib) any { return qat.NewStubs(l) },
		func(r *server.Registry) { qat.BindServer(r, qat.NewSilo(1)) },
		map[string]any{"qat_instance": &qat.Instance{}, "qat_session": &qat.Session{}}},
	{"toydev", toydevSpec(), func(l *guest.Lib) any { return toydev.NewStubs(l) },
		func(r *server.Registry) { toydev.Register(r, toySilo{}) },
		map[string]any{"dev": new(int)}},
}

// toySilo is a toydev.Implementation that does nothing.
type toySilo struct{}

func (toySilo) OpenDevice(*server.Context, uint32) (any, int32)          { return new(int), 0 }
func (toySilo) DeviceCount(*server.Context) (uint32, int32)              { return 0, 0 }
func (toySilo) Store(*server.Context, any, uint64, []byte, uint32) int32 { return 0 }
func (toySilo) Load(*server.Context, any, uint64, []byte) int32          { return 0 }
func (toySilo) Scale(*server.Context, any, float64) int32                { return 0 }
func (toySilo) CloseDevice(*server.Context, any) int32                   { return 0 }

func toydevSpec() string {
	src, err := os.ReadFile("../gen/toydev/toydev.ava")
	if err != nil {
		panic(err)
	}
	return string(src)
}

// wireTap is a guest library over an echo endpoint that keeps every call
// frame it is sent and answers with outputs a server could have produced.
type wireTap struct {
	lib    *guest.Lib
	frames [][]byte
}

func newWireTap(desc *cava.Descriptor) *wireTap {
	w := &wireTap{}
	echo := guesttest.NewEcho()
	echo.Tap = func(_ *marshal.Call, frame []byte) {
		w.frames = append(w.frames, append([]byte(nil), frame...))
	}
	echo.Outs = guesttest.ServerOuts(desc)
	// A virtual clock that nobody advances: both libraries stamp the same
	// encode time, so frames compare whole.
	w.lib = guest.New(desc, echo, guest.WithClock(clock.NewVirtual()))
	return w
}

// stubArgs synthesizes one argument list for a stub method: every integer is
// 2 (so every size expression asks for a few bytes), every buffer is 4 KiB of
// a pattern, every out element has a destination — or, with present false,
// every pointer argument is nil.
func stubArgs(m reflect.Type, present bool) []reflect.Value {
	args := make([]reflect.Value, m.NumIn())
	for i := range args {
		t := m.In(i)
		switch t.Kind() {
		case reflect.Slice:
			if present {
				args[i] = reflect.ValueOf(bytes.Repeat([]byte{byte(0x30 + i)}, 4<<10))
			} else {
				args[i] = reflect.Zero(t)
			}
		case reflect.Pointer:
			if present {
				args[i] = reflect.New(t.Elem())
			} else {
				args[i] = reflect.Zero(t)
			}
		case reflect.String:
			args[i] = reflect.ValueOf("arg")
		case reflect.Bool:
			args[i] = reflect.ValueOf(true)
		case reflect.Float32, reflect.Float64:
			args[i] = reflect.ValueOf(2.5).Convert(t)
		default: // integers and marshal.Handle
			args[i] = reflect.ValueOf(2).Convert(t)
		}
	}
	return args
}

// For every function of every generated library, a call through the typed
// stub puts the same bytes on the wire as Lib.Call(name, ...any) with the same
// arguments, and brings the same outputs back — with every optional pointer
// present, and with every one nil.
func TestTypedStubsSendWhatCallByNameSends(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	for _, g := range generatedLibs {
		desc := cava.MustCompile(g.spec)
		typed, named := newWireTap(desc), newWireTap(desc)
		defer typed.lib.Close()
		defer named.lib.Close()
		stubs := reflect.ValueOf(g.new(typed.lib))
		for _, fd := range desc.Funcs {
			method := stubs.MethodByName(strings.ToUpper(fd.Name[:1]) + fd.Name[1:])
			if !method.IsValid() {
				t.Errorf("%s: no stub for %s", g.name, fd.Name)
				continue
			}
			for _, present := range []bool{true, false} {
				targs, nargs := stubArgs(method.Type(), present), stubArgs(method.Type(), present)
				anys := make([]any, len(nargs))
				for i, a := range nargs {
					if !(a.Kind() == reflect.Pointer && a.IsNil()) { // an untyped nil, as a caller writes it
						anys[i] = a.Interface()
					}
				}
				before := len(typed.frames)
				res := method.Call(targs)
				terr, _ := res[len(res)-1].Interface().(error)
				_, nerr := named.lib.Call(fd.Name, anys...)
				if terr != nil || nerr != nil {
					t.Errorf("%s %s (pointers present: %v): stub err %v, by-name err %v", g.name, fd.Name, present, terr, nerr)
					continue
				}
				if err := typed.lib.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := named.lib.Flush(); err != nil {
					t.Fatal(err)
				}
				if len(typed.frames) != before+1 || len(named.frames) != before+1 {
					t.Fatalf("%s %s: %d typed / %d by-name frames after the call, want %d", g.name, fd.Name, len(typed.frames), len(named.frames), before+1)
				}
				if !bytes.Equal(typed.frames[before], named.frames[before]) {
					t.Errorf("%s %s (pointers present: %v): stub and by-name call frames differ\n stub    %x\n by-name %x",
						g.name, fd.Name, present, typed.frames[before], named.frames[before])
				}
				for i := range targs {
					if k := targs[i].Kind(); k != reflect.Slice && k != reflect.Pointer {
						continue
					}
					if !reflect.DeepEqual(targs[i].Interface(), nargs[i].Interface()) {
						t.Errorf("%s %s: argument %d came back different through the stub and by name", g.name, fd.Name, i)
					}
				}
				if present && fd.NumOuts > 0 && !outputsArrived(fd, targs) {
					t.Errorf("%s %s: outputs did not reach the stub's destinations", g.name, fd.Name)
				}
			}
		}
	}
}

// outputsArrived reports whether every out parameter's destination holds what
// the wire tap's server answered.
func outputsArrived(fd *cava.FuncDesc, args []reflect.Value) bool {
	for i := range fd.Params {
		pd := &fd.Params[i]
		switch {
		case !pd.Out():
		case pd.IsElement:
			want := uint64(guesttest.OutScalar)
			if pd.Kind == spec.KindHandle {
				want = guesttest.OutHandle
			}
			if e := args[i].Elem(); e.CanUint() && e.Uint() != want || e.CanInt() && e.Int() != int64(want) {
				return false
			}
		default:
			if b := args[i].Bytes(); b[0] != guesttest.OutFill && b[0] != guesttest.InOutFill {
				return false
			}
		}
	}
	return true
}

// A generated library refuses, loudly and at construction, a guest library
// whose descriptor is not the one it was generated from.
func TestStubsRefuseAnotherDescriptor(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	lib := guest.New(cava.MustCompile(qat.Spec), guesttest.NewEcho())
	defer lib.Close()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "do not match") {
			t.Fatalf("cl.NewRemote over a QAT library: recovered %v, want a descriptor-mismatch panic", r)
		}
	}()
	cl.NewRemote(lib)
}
