package cava

import (
	"math"
	"strings"
	"testing"

	"ava/internal/marshal"
	"ava/internal/spec"
)

const testSpec = `
api "testapi" version "0.1";

handle dev;
handle buf;

const OK = 0;
const TRUE = 1;

type status = int32_t { success(OK); };

status openDevice(uint32_t index, dev *d) {
  parameter(d) { out; element { allocates; } }
  track(create, d);
}

status writeBuf(dev d, buf b, size_t offset, size_t size, const void *data,
                uint32_t blocking) {
  if (blocking == TRUE) sync; else async;
  parameter(data) { in; buffer(size); }
  resource(bandwidth, size);
}

status readBuf(dev d, buf b, size_t size, void *out) {
  parameter(out) { out; buffer(size); }
  resource(bandwidth, size);
}

status setName(dev d, const char *name);

status launch(dev d, size_t global, size_t local) {
  async;
  resource(device_time, global / local);
  track(modify, d);
}

status closeDevice(dev d) {
  track(destroy, d);
}
`

func compileTest(t *testing.T) *Descriptor {
	t.Helper()
	api, err := spec.Parse(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(api)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompileAssignsSequentialIDs(t *testing.T) {
	d := compileTest(t)
	if len(d.Funcs) != 6 {
		t.Fatalf("funcs = %d", len(d.Funcs))
	}
	for i, fd := range d.Funcs {
		if fd.ID != uint32(i) {
			t.Errorf("func %s ID = %d, want %d", fd.Name, fd.ID, i)
		}
		got, ok := d.ByID(fd.ID)
		if !ok || got != fd {
			t.Errorf("ByID(%d) mismatch", fd.ID)
		}
		byName, ok := d.Lookup(fd.Name)
		if !ok || byName != fd {
			t.Errorf("Lookup(%s) mismatch", fd.Name)
		}
	}
	if _, ok := d.ByID(99); ok {
		t.Error("ByID(99) found")
	}
	if _, ok := d.Lookup("ghost"); ok {
		t.Error("Lookup(ghost) found")
	}
}

func TestCompileParamShapes(t *testing.T) {
	d := compileTest(t)

	open, _ := d.Lookup("openDevice")
	dp := open.Params[1]
	if !dp.IsPointer || !dp.IsElement || !dp.Allocates || dp.Kind != spec.KindHandle || dp.ElemSize != 8 {
		t.Fatalf("openDevice(d) = %+v", dp)
	}
	if open.NumOuts != 1 || open.TrackIdx != 1 || open.Track.Kind != spec.TrackCreate {
		t.Fatalf("openDevice meta = %+v", open)
	}

	wr, _ := d.Lookup("writeBuf")
	data := wr.Params[4]
	if !data.IsBuffer || data.Dir != spec.DirIn || data.ElemSize != 1 {
		t.Fatalf("writeBuf(data) = %+v", data)
	}
	if wr.NumOuts != 0 {
		t.Fatalf("writeBuf outs = %d", wr.NumOuts)
	}
	if wr.CondParamIdx != 5 {
		t.Fatalf("writeBuf cond idx = %d", wr.CondParamIdx)
	}

	sn, _ := d.Lookup("setName")
	name := sn.Params[1]
	if name.Kind != spec.KindString || name.IsBuffer || name.IsPointer {
		t.Fatalf("setName(name) = %+v", name)
	}
}

func TestCompileSuccessValues(t *testing.T) {
	d := compileTest(t)
	for _, fd := range d.Funcs {
		if !fd.HasSuccess || fd.SuccessVal != 0 {
			t.Errorf("%s: success = %t/%d", fd.Name, fd.HasSuccess, fd.SuccessVal)
		}
	}
}

func TestIsSyncConditional(t *testing.T) {
	d := compileTest(t)
	wr, _ := d.Lookup("writeBuf")
	args := []marshal.Value{
		marshal.HandleVal(1), marshal.HandleVal(2),
		marshal.Uint(0), marshal.Uint(64), marshal.BytesVal(make([]byte, 64)),
		marshal.Uint(1), // blocking == TRUE
	}
	sync, err := wr.IsSync(d.API, args)
	if err != nil || !sync {
		t.Fatalf("blocking write: sync=%t err=%v", sync, err)
	}
	args[5] = marshal.Uint(0)
	sync, err = wr.IsSync(d.API, args)
	if err != nil || sync {
		t.Fatalf("non-blocking write: sync=%t err=%v", sync, err)
	}
}

func TestIsSyncAlwaysModes(t *testing.T) {
	d := compileTest(t)
	rd, _ := d.Lookup("readBuf")
	if s, _ := rd.IsSync(d.API, nil); !s {
		t.Fatal("readBuf should be sync")
	}
	la, _ := d.Lookup("launch")
	if s, _ := la.IsSync(d.API, nil); s {
		t.Fatal("launch should be async")
	}
}

func TestBufferBytes(t *testing.T) {
	d := compileTest(t)
	wr, _ := d.Lookup("writeBuf")
	env := spec.Env{"size": 4096}
	n, err := wr.BufferBytes(4, d.API, env)
	if err != nil || n != 4096 {
		t.Fatalf("buffer bytes = %d, %v", n, err)
	}
	// Element parameters report their element size.
	open, _ := d.Lookup("openDevice")
	n, err = open.BufferBytes(1, d.API, nil)
	if err != nil || n != 8 {
		t.Fatalf("element bytes = %d, %v", n, err)
	}
	// Non-buffer parameters are an error.
	if _, err := wr.BufferBytes(0, d.API, env); err == nil {
		t.Fatal("scalar BufferBytes succeeded")
	}
	// Negative sizes are rejected.
	if _, err := wr.BufferBytes(4, d.API, spec.Env{"size": -5}); err == nil {
		t.Fatal("negative size accepted")
	}
	// An element count whose product with the element size does not fit an
	// int is refused, not wrapped: 1<<61 eight-byte elements is "0 bytes".
	wide := MustCompile(`void f(uint64_t n, const uint64_t *v) { parameter(v) { in; buffer(n); } }`)
	f, _ := wide.Lookup("f")
	if n, err := f.BufferBytes(1, wide.API, spec.Env{"n": 3}); err != nil || n != 24 {
		t.Fatalf("3 uint64_t elements = %d bytes, %v", n, err)
	}
	for _, count := range []int64{1 << 61, 1<<62 + 1, math.MaxInt64} {
		if n, err := f.BufferBytes(1, wide.API, spec.Env{"n": count}); err == nil {
			t.Errorf("%d uint64_t elements accepted as %d bytes", count, n)
		}
	}
}

func TestEnvConversion(t *testing.T) {
	d := compileTest(t)
	wr, _ := d.Lookup("writeBuf")
	args := []marshal.Value{
		marshal.HandleVal(7), marshal.HandleVal(8),
		marshal.Uint(16), marshal.Uint(256), marshal.BytesVal(nil),
		marshal.Bool(true),
	}
	env := wr.Env(args)
	if env["offset"] != 16 || env["size"] != 256 || env["blocking"] != 1 {
		t.Fatalf("env = %v", env)
	}
	if _, ok := env["data"]; ok {
		t.Fatal("pointer parameter leaked into env")
	}
	// Handles are scalars and participate too (d is a handle).
	if env["d"] != 7 {
		t.Fatalf("handle env = %v", env)
	}
}

func TestEstimateResources(t *testing.T) {
	d := compileTest(t)
	wr, _ := d.Lookup("writeBuf")
	args := []marshal.Value{
		marshal.HandleVal(1), marshal.HandleVal(2),
		marshal.Uint(0), marshal.Uint(1 << 20), marshal.BytesVal(nil),
		marshal.Uint(1),
	}
	est := func(fd *FuncDesc, name string, args []marshal.Value) int64 {
		t.Helper()
		i := fd.ResourceIndex(name)
		if i < 0 {
			t.Fatalf("%s: no %s annotation", fd.Name, name)
		}
		return fd.EstimateResources(d.API, args, nil)[i]
	}
	if got := est(wr, "bandwidth", args); got != 1<<20 {
		t.Fatalf("bandwidth = %d", got)
	}

	la, _ := d.Lookup("launch")
	if got := est(la, "device_time", []marshal.Value{
		marshal.HandleVal(1), marshal.Uint(1024), marshal.Uint(64),
	}); got != 16 {
		t.Fatalf("device_time = %d", got)
	}

	rd, _ := d.Lookup("readBuf")
	// Broken env (missing size): estimate degrades to zero, not an error.
	if got := est(rd, "bandwidth", nil); got != 0 {
		t.Fatalf("degraded estimate = %d", got)
	}

	// The result reuses the caller's slice; no annotations means no entries.
	scratch := make([]int64, 0, 4)
	if got := wr.EstimateResources(d.API, args, scratch); &got[:1][0] != &scratch[:1][0] {
		t.Fatal("estimate did not reuse the caller's slice")
	}
	open, _ := d.Lookup("openDevice")
	if got := open.EstimateResources(d.API, nil, scratch); len(got) != 0 || open.ResourceIndex("bandwidth") != -1 {
		t.Fatalf("no annotations should estimate nothing, got %v", got)
	}
}

func TestCompileRejectsInvalidSpec(t *testing.T) {
	api := spec.NewAPI("broken")
	api.Funcs = append(api.Funcs, &spec.Func{
		Name: "f",
		Ret:  spec.TypeRef{Name: "mystery"},
	})
	if _, err := Compile(api); err == nil {
		t.Fatal("invalid spec compiled")
	}
}

func TestMustCompilePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustCompile("this is not a spec %%%")
}

func TestMustCompileGood(t *testing.T) {
	d := MustCompile(`handle h; void f(h x);`)
	if _, ok := d.Lookup("f"); !ok {
		t.Fatal("f missing")
	}
}

func TestInOutHelpers(t *testing.T) {
	d := compileTest(t)
	wr, _ := d.Lookup("writeBuf")
	if !wr.Params[0].In() || wr.Params[0].Out() {
		t.Fatal("scalar should be in-only")
	}
	if !wr.Params[4].In() || wr.Params[4].Out() {
		t.Fatal("in buffer direction wrong")
	}
	rd, _ := d.Lookup("readBuf")
	if rd.Params[3].In() || !rd.Params[3].Out() {
		t.Fatal("out buffer direction wrong")
	}
}

func TestCompiledSpecPrintedFormStillCompiles(t *testing.T) {
	api, err := spec.Parse(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	printed := spec.Print(api)
	api2, err := spec.Parse(printed)
	if err != nil {
		t.Fatalf("printed spec: %v", err)
	}
	d2, err := Compile(api2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Funcs) != 6 {
		t.Fatalf("round-tripped funcs = %d", len(d2.Funcs))
	}
	if !strings.Contains(printed, "track(create, d);") {
		t.Fatalf("printed spec lost track annotation:\n%s", printed)
	}
}

func TestOrderingDomain(t *testing.T) {
	d := compileTest(t)

	// writeBuf(dev d, buf b, ...): the first non-pointer handle parameter
	// is the ordering domain.
	wb, _ := d.Lookup("writeBuf")
	if wb.DomainIdx != 0 {
		t.Fatalf("writeBuf DomainIdx = %d, want 0", wb.DomainIdx)
	}
	args := []marshal.Value{
		marshal.HandleVal(0xD0), marshal.HandleVal(0xB1),
		marshal.Uint(0), marshal.Uint(4),
		marshal.BytesVal([]byte{1, 2, 3, 4}), marshal.Uint(1),
	}
	if dom := wb.Domain(args); dom != 0xD0 {
		t.Fatalf("writeBuf domain = %#x, want 0xD0", dom)
	}

	// openDevice(uint32_t, dev *d): the only handle is an out pointer, so
	// the call lands in the fallback domain.
	od, _ := d.Lookup("openDevice")
	if od.DomainIdx != -1 {
		t.Fatalf("openDevice DomainIdx = %d, want -1", od.DomainIdx)
	}
	if dom := od.Domain([]marshal.Value{marshal.Uint(0), marshal.Null()}); dom != 0 {
		t.Fatalf("openDevice domain = %d, want 0 (fallback)", dom)
	}

	// A malformed (short) argument vector must not panic and falls back.
	if dom := wb.Domain(nil); dom != 0 {
		t.Fatalf("short args domain = %d, want 0", dom)
	}
}

// Resolve is what keeps a generated guest library honest: its function table
// must be the descriptor's, entry for entry.
func TestResolveMatchesSignatures(t *testing.T) {
	d := MustCompile(`
api "sig";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };
st load(obj o, size_t n, void *out, uint32_t *got) {
  parameter(out) { out; buffer(n); }
  parameter(got) { out; element; }
}
obj create(const char *name, double scale);
`)
	sigs := []string{"load(handle,uint,out void[],out uint*)int", "create(string,float)handle"}
	for i, fd := range d.Funcs {
		if got := fd.Signature(); got != sigs[i] {
			t.Errorf("signature %d = %q, want %q", i, got, sigs[i])
		}
	}
	fns, err := d.Resolve(sigs)
	if err != nil || len(fns) != 2 || fns[0].Name != "load" || fns[1].ID != 1 {
		t.Fatalf("Resolve = %v, %v", fns, err)
	}
	for name, bad := range map[string][]string{
		"a function fewer":    sigs[:1],
		"a function more":     append(append([]string(nil), sigs...), "extra()void"),
		"functions reordered": {sigs[1], sigs[0]},
		"a parameter's shape": {"load(handle,uint,in void[],out uint*)int", sigs[1]},
		"a parameter's kind":  {sigs[0], "create(string,uint)handle"},
		"a function's return": {sigs[0], "create(string,float)int"},
	} {
		if _, err := d.Resolve(bad); err == nil {
			t.Errorf("Resolve accepted a table that differs by %s", name)
		}
	}
}

// TrackKeyIdx is the key parameter's index on a keyed modify and -1 on
// every other function.
func TestTrackKeyIdx(t *testing.T) {
	d := MustCompile(`
handle obj;
type st = int32_t;
st set(obj o, const void *v, size_t n, uint32_t slot) { parameter(v) { in; buffer(n); } track(modify, o, slot); }
st build(obj o) { track(modify, o); }
st plain(uint32_t slot);
`)
	for name, want := range map[string]int{"set": 3, "build": -1, "plain": -1} {
		fd, _ := d.Lookup(name)
		if fd.TrackKeyIdx != want {
			t.Errorf("%s: TrackKeyIdx = %d, want %d", name, fd.TrackKeyIdx, want)
		}
	}
}
