package cava

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const genSpec = `
api "edgecase";
handle obj;
const OK = 0;
type st = int32_t { success(OK); };

// Parameter names that collide with Go keywords and generator locals.
st tricky(uint32_t type, uint64_t func, int32_t map, double c, bool v, string range) {
  async;
}

void voidReturn(obj o, uint32_t x);

obj handleReturn(uint32_t kind, int32_t *errcode_ret) {
  parameter(errcode_ret) { out; element; }
  track(create);
}

uint64_t uintReturn(obj o);

st buffers(obj o, size_t n, const float *in_data, float *out_data,
           uint64_t *count, obj *made) {
  parameter(in_data) { in; buffer(n); }
  parameter(out_data) { out; buffer(n); }
  parameter(count) { out; element; }
  parameter(made) { out; element { allocates; } }
}
`

func TestGenerateEdgeCases(t *testing.T) {
	d := MustCompile(genSpec)
	src, stats, err := Generate(d, genSpec, GenOptions{Package: "edgecase"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Functions != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	code := string(src)

	// Keyword parameters must be renamed, not emitted verbatim.
	for _, banned := range []string{"(type uint32", " func uint64", " map int32"} {
		if strings.Contains(code, banned) {
			t.Fatalf("generated code contains reserved name: %q", banned)
		}
	}
	// All four return shapes appear.
	for _, want := range []string{
		"func (c *Stubs) Tricky(",
		") error {",                 // void return
		") (marshal.Handle, error)", // handle return
		") (uint64, error)",         // uint64 return
		") (int32, error)",          // status return
		"func Register(reg *server.Registry, impl Implementation)",
	} {
		if !strings.Contains(code, want) {
			t.Fatalf("generated code missing %q", want)
		}
	}

	// The output must be syntactically valid Go.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v", err)
	}
}

// The generator has one output shape: both halves of the stack, the guest
// library under the one name the API packages' hand-written Client facades
// leave free.
func TestGenerateOneShape(t *testing.T) {
	d := MustCompile(genSpec)
	src, _, err := Generate(d, genSpec, GenOptions{Package: "edgecase"})
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	for _, want := range []string{
		"type Stubs struct", "func NewStubs(lib *guest.Lib) *Stubs", "var stubsSigs = [...]string{",
		"type Implementation interface", "func Register(reg *server.Registry, impl Implementation)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(code, "Client") {
		t.Error("output takes the name Client")
	}
}

// serverHalf returns the generated API server: everything from the
// Implementation interface on.
func serverHalf(t *testing.T, src []byte) string {
	t.Helper()
	_, half, ok := strings.Cut(string(src), "type Implementation interface")
	if !ok {
		t.Fatal("no Implementation interface in the generated code")
	}
	return half
}

// What the dispatch handlers do with a handle comes from the handle's
// declaration; the generated server never hands the silo a guest handle, and
// an out element comes back by value: no pointer to a handler local crosses
// the Implementation interface (it would escape through the interface call
// and cost an allocation per call, the one the guest stubs shed in PR 20).
func TestGeneratedServerFollowsTheDeclarations(t *testing.T) {
	const src = `
api "decls";
const OK = 0;
const BAD_THING = -7;
const NO_MEM = -9;
handle thing { type(*Thing); invalid(BAD_THING); refcounted; }
handle root { type(*Root); stable; }
type st = int32_t { success(OK); oom(NO_MEM); };
st roots(uint32_t n, root *out) { parameter(out) { out; buffer(n); } }
st make(root r, thing *made, uint64_t *size) {
  parameter(made) { out; element { allocates; } }
  parameter(size) { out; element; }
}
thing makeRet(thing parent, st *errcode) { parameter(errcode) { out; element; } track(create); }
st wait(uint32_t n, const thing *list) { parameter(list) { in; buffer(n); } }
st drop(thing t) { track(destroy, t); }
void poke(thing t);
`
	code, _, err := Generate(MustCompile(src), src, GenOptions{Package: "decls"})
	if err != nil {
		t.Fatal(err)
	}
	half := serverHalf(t, code)
	for _, want := range []string{
		"Roots(ctx *server.Context, n uint32, out []*Root) int32",
		"Make(ctx *server.Context, r *Root) (made *Thing, size uint64, ret int32)",
		"MakeRet(ctx *server.Context, parent *Thing) (errcode int32, ret *Thing)",
		"Wait(ctx *server.Context, n uint32, list []*Thing) int32",
		"server.PublishList(v.Ctx, v.Bytes(1), out, true)",   // stable handles out of a buffer
		"server.ResolveList[*Thing](v.Ctx, v.Bytes(1))",      // handles into a buffer
		"v.SetStatus(-7) // BAD_THING",                       // the declared invalid status...
		"v.SetOutInt(1, -7) // BAD_THING",                    // ...in the errcode slot of a create
		"return v.BadHandle(0)",                              // ...or a failed call: root declares none, poke has no status
		"if ret == -9 { // NO_MEM\n\t\t\treturn v.OOM()",     // oom on the return
		"if errcode == -9 { // NO_MEM\n\t\t\treturn v.OOM()", // and on an out element of that type
		"if made != nil && !v.IsNull(1) {",                   // present-or-null allocated out
		"if ret == 0 && t.Released() {",                      // destroy on last release
		"v.SetRetHandle(v.Ctx.Handles.Insert(ret))",          // fresh insertion of a returned handle
	} {
		if !strings.Contains(half, want) {
			t.Errorf("generated server missing %q", want)
		}
	}
	if strings.Count(half, "&") != 2*strings.Count(half, "&&") {
		t.Error("generated server takes an address: out elements must cross the Implementation interface by value")
	}
	if strings.Contains(half, "marshal.Handle") {
		t.Error("generated server hands the Implementation a guest handle")
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", code, 0); err != nil {
		t.Fatalf("generated code does not parse: %v", err)
	}
}

// The release the generated Register installs is a type switch over the
// handle declarations' type(*T), calling each type's one destructor: a
// refcounted object's until it reports Released() or the destructor fails —
// the same condition the destroy handler drops the handle on — a plain
// one's once. The untyped declaration with a destructor takes the default
// case, so the typed declarations without one get an empty case of their
// own.
func TestGeneratedReleaseFollowsTheDestructors(t *testing.T) {
	const src = `
api "rel";
const OK = 0;
handle thing { type(*Thing); refcounted; }
handle plain { type(*Plain); }
handle root { type(*Root); stable; }
handle loose;
type st = int32_t { success(OK); };
st dropThing(thing t) { track(destroy, t); }
st dropPlain(plain p) { parameter(p) { deallocates; } }
void dropLoose(loose l) { track(destroy, l); }
st use(root r, thing t);
`
	code, _, err := Generate(MustCompile(src), src, GenOptions{Package: "rel"})
	if err != nil {
		t.Fatal(err)
	}
	half := serverHalf(t, code)
	_, release, ok := strings.Cut(half, "reg.SetRelease(func(ctx *server.Context, obj any) {")
	if !ok {
		t.Fatal("Register installs no release")
	}
	for _, want := range []string{
		"case *Thing:\n\t\t\t// dropThing destroys a thing.\n\t\t\tfor ret := impl.DropThing(ctx, obj); ret == 0 && !obj.Released(); ret = impl.DropThing(ctx, obj) {",
		"case *Plain:\n\t\t\t// dropPlain destroys a plain.\n\t\t\timpl.DropPlain(ctx, obj)\n",
		"case *Root: // no destructor",
		"default:\n\t\t\t// dropLoose destroys a loose.\n\t\t\timpl.DropLoose(ctx, obj)\n",
	} {
		if !strings.Contains(release, want) {
			t.Errorf("generated release missing %q:\n%s", want, release)
		}
	}
	if !strings.Contains(half, "if ret == 0 && t.Released() {") {
		t.Error("the destroy handler drops its handle on another condition than the release's")
	}

	// An API without destructors installs none.
	const bare = `api "bare"; handle h { type(*H); }; int32_t f(h x);`
	if code, _, err = Generate(MustCompile(bare), bare, GenOptions{Package: "bare"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(code), "SetRelease") {
		t.Error("a release generated for an API without destructors")
	}
}

// The stubs go through the engine's typed entry and nothing else: no by-name
// call, no `...any`, one Invoke per function, descriptors resolved once.
func TestGeneratedStubsUseTheTypedEntry(t *testing.T) {
	d := MustCompile(genSpec)
	src, _, err := Generate(d, genSpec, GenOptions{Package: "edgecase"})
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	if n := strings.Count(code, "c.lib.Invoke(c.fn["); n != len(d.Funcs) {
		t.Errorf("%d Invoke calls for %d functions", n, len(d.Funcs))
	}
	for _, banned := range []string{".Call(", ".CallWith(", "...any", "Lookup("} {
		if strings.Contains(code, banned) {
			t.Errorf("generated code contains %q", banned)
		}
	}
	if n := strings.Count(code, "lib.Descriptor().Resolve(stubsSigs[:])"); n != 1 {
		t.Errorf("function table resolved %d times, want once, in the constructor", n)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	d := MustCompile(genSpec)
	a, _, err := Generate(d, genSpec, GenOptions{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(d, genSpec, GenOptions{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("generation is not deterministic")
	}
}

func TestGenerateDefaultPackageName(t *testing.T) {
	d := MustCompile(`api "My-API 2"; void f(uint32_t x);`)
	src, _, err := Generate(d, "", GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "package myapi2") {
		t.Fatalf("package name not sanitized:\n%.200s", src)
	}
}
