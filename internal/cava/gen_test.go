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
		"func (c *Client) Tricky(",
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

// With GenOptions.Stubs the output is the guest library alone, under the
// given name: no server scaffolding, no import of the server package.
func TestGenerateStubsOnly(t *testing.T) {
	d := MustCompile(genSpec)
	src, _, err := Generate(d, genSpec, GenOptions{Package: "edgecase", Stubs: "Stubs"})
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	for _, want := range []string{"type Stubs struct", "func NewStubs(lib *guest.Lib) *Stubs", "func (c *Stubs) Tricky(", "var stubsSigs = [...]string{"} {
		if !strings.Contains(code, want) {
			t.Errorf("stubs-only output missing %q", want)
		}
	}
	for _, banned := range []string{"internal/server", "Implementation", "func Register(", "Client"} {
		if strings.Contains(code, banned) {
			t.Errorf("stubs-only output contains %q", banned)
		}
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v", err)
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
	if n := strings.Count(code, "lib.Descriptor().Resolve(clientSigs[:])"); n != 1 {
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
