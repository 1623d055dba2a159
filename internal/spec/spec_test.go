package spec

import (
	"strings"
	"testing"
)

// figure4 is the paper's Figure 4 example, transcribed into the
// self-contained spec dialect (the cl.h declarations are folded in).
const figure4 = `
api "opencl" version "1.2";

handle cl_command_queue;
handle cl_mem;
handle cl_event;

const CL_SUCCESS = 0;
const CL_TRUE = 1;

type cl_int = int32_t { success(CL_SUCCESS); };
type cl_bool = uint32_t;
type cl_uint = uint32_t;

cl_int clEnqueueReadBuffer(
    cl_command_queue command_queue,
    cl_mem buf, cl_bool blocking_read,
    size_t offset, size_t size, void *ptr,
    cl_uint num_events_in_wait_list,
    const cl_event *event_wait_list, cl_event *event) {
  if (blocking_read == CL_TRUE) sync; else async;
  parameter(ptr) { out; buffer(size); }
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list); }
  parameter(event) { out; element { allocates; } }
  resource(bandwidth, size);
}
`

func mustParse(t *testing.T, src string) *API {
	t.Helper()
	api, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return api
}

func TestParseFigure4(t *testing.T) {
	api := mustParse(t, figure4)
	if api.Name != "opencl" || api.Version != "1.2" {
		t.Fatalf("api header: %q %q", api.Name, api.Version)
	}
	if len(api.Handles) != 3 || len(api.Consts) != 2 || len(api.Types) != 3 {
		t.Fatalf("decl counts: %d handles, %d consts, %d types",
			len(api.Handles), len(api.Consts), len(api.Types))
	}
	fn := api.Func("clEnqueueReadBuffer")
	if fn == nil {
		t.Fatal("function missing")
	}
	if len(fn.Params) != 9 {
		t.Fatalf("params = %d", len(fn.Params))
	}

	if fn.Sync.Mode != SyncConditional || fn.Sync.CondParam != "blocking_read" || fn.Sync.Negate {
		t.Fatalf("sync = %+v", fn.Sync)
	}
	v, err := EvalExpr(fn.Sync.CondValue, api, nil)
	if err != nil || v != 1 {
		t.Fatalf("cond value = %d, %v", v, err)
	}

	ptr := fn.Param("ptr")
	if ptr.Dir != DirOut || !ptr.IsBuffer || ptr.SizeExpr.String() != "size" {
		t.Fatalf("ptr = %+v", ptr)
	}
	ewl := fn.Param("event_wait_list")
	if ewl.Dir != DirIn || !ewl.IsBuffer || !ewl.Type.Const {
		t.Fatalf("event_wait_list = %+v", ewl)
	}
	ev := fn.Param("event")
	if ev.Dir != DirOut || !ev.IsElement || !ev.Allocates {
		t.Fatalf("event = %+v", ev)
	}

	if len(fn.Resources) != 1 || fn.Resources[0].Resource != "bandwidth" {
		t.Fatalf("resources = %+v", fn.Resources)
	}
}

func TestSuccessValue(t *testing.T) {
	api := mustParse(t, figure4)
	fn := api.Func("clEnqueueReadBuffer")
	v, ok := api.SuccessValue(fn)
	if !ok || v != 0 {
		t.Fatalf("success = %d, %t", v, ok)
	}
}

func TestResolveAliasChain(t *testing.T) {
	api := mustParse(t, `
		type a = int32_t;
		type b = a;
		type c = b;
	`)
	rt, err := api.Resolve("c")
	if err != nil || rt.Kind != KindInt || rt.Size != 4 {
		t.Fatalf("resolve c = %+v, %v", rt, err)
	}
}

func TestResolveCycleDetected(t *testing.T) {
	api := NewAPI("x")
	api.Types["a"] = &TypeDecl{Name: "a", Base: "b"}
	api.Types["b"] = &TypeDecl{Name: "b", Base: "a"}
	if _, err := api.Resolve("a"); err == nil {
		t.Fatal("alias cycle not detected")
	}
}

func TestResolveHandle(t *testing.T) {
	api := mustParse(t, `handle cl_mem;`)
	rt, err := api.Resolve("cl_mem")
	if err != nil || rt.Kind != KindHandle || rt.Size != 8 {
		t.Fatalf("resolve handle = %+v, %v", rt, err)
	}
}

func TestElemSizeVoidIsOne(t *testing.T) {
	api := NewAPI("x")
	n, err := api.ElemSize("void")
	if err != nil || n != 1 {
		t.Fatalf("void elem size = %d, %v", n, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unterminated comment", `/* nope`, "unterminated block comment"},
		{"unterminated string", `api "x`, "unterminated string"},
		{"bad char", `type a = int32_t; %`, "unexpected character"},
		{"bad hex", `const X = 0x;`, "malformed hex"},
		{"dup type", "type a = int32_t;\ntype a = int64_t;", "redeclared"},
		{"dup const", "const A = 1;\nconst A = 2;", "redeclared"},
		{"dup handle", "handle h;\nhandle h;", "redeclared"},
		{"dup func", "handle h;\nvoid f(h x);\nvoid f(h x);", "redeclared"},
		{"dup param", `void f(int32_t a, int64_t a);`, "duplicate parameter"},
		{"unknown annotation", `void f(int32_t a) { frobnicate; }`, "unknown annotation"},
		{"unknown param in ann", `void f(int32_t a) { parameter(b) { in; } }`, "no such parameter"},
		{"same branches", `void f(int32_t a) { if (a == 1) sync; else sync; }`, "identical branches"},
		{"bad track kind", `void f(int32_t a) { track(explode); }`, "unknown track kind"},
		{"two tracks", "handle h;\nvoid f(h a) { track(modify, a); track(config); }", "multiple track"},
		{"bad handle annotation", `handle h { sticky; }`, "unknown handle annotation"},
		{"handle type not a pointer", `handle h { type(Obj); }`, "expected '*'"},
		{"handle without end", `handle h void f(h x);`, "expected ';' or annotation body"},
		{"bad type annotation", `type st = int32_t { failure(1); };`, "unknown type annotation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown type", `mystery f(int32_t a);`, "unknown type"},
		{"deep pointer", `void f(int32_t **a) { parameter(a) { in; buffer(1); } }`, "pointer depth"},
		{"buffer on scalar", `void f(int32_t a) { parameter(a) { in; buffer(4); } }`, "scalar parameter"},
		{"out on scalar", `void f(int32_t a) { parameter(a) { out; } }`, "by-value"},
		{"void value", `void f(void a);`, "not a value type"},
		{"buffer and element", `void f(int32_t *a) { parameter(a) { out; buffer(1); element; } }`, "both buffer and element"},
		{"const out", `void f(const int32_t *a) { parameter(a) { out; buffer(1); } }`, "const pointer cannot be an output"},
		{"unannotated pointer", `void f(int32_t *a);`, "needs a buffer"},
		{"size refs pointer", `void f(const int32_t *a, const int32_t *b) { parameter(a) { in; buffer(b); } parameter(b) { in; buffer(1); } }`, "references pointer parameter"},
		{"size refs unknown", `void f(const int32_t *a) { parameter(a) { in; buffer(nope); } }`, "unknown identifier"},
		{"allocates non-handle", `void f(int32_t *a) { parameter(a) { out; element; allocates; } }`, "requires a handle"},
		{"cond on pointer", `void f(const int32_t *a) { parameter(a) { in; buffer(1); } if (a == 1) sync; else async; }`, "must be scalar"},
		{"cond unknown param", `void f(int32_t a) { if (b == 1) sync; else async; }`, "unknown parameter"},
		{"async no success", `int32_t f(int32_t a) { async; }`, "declares no success value"},
		{"track missing param", "handle h;\nvoid f(h a) { track(modify); }", "requires an object parameter"},
		{"track unknown param", "handle h;\nvoid f(h a) { track(destroy, b); }", "no such parameter"},
		{"track create non-handle ret", `int32_t f(int32_t a) { track(create); }`, "requires a handle return"},
		{"bad sizeof", `void f(const int32_t *a, size_t n) { parameter(a) { in; buffer(n * sizeof(nothing)); } }`, "unknown type"},
		{"invalid refs unknown", `handle h { invalid(NOPE); }`, "handle h invalid status"},
		{"oom refs unknown", `type st = int32_t { oom(NOPE); };`, "type st oom value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateReportsAllErrors(t *testing.T) {
	_, err := Parse(`
		mystery f1(int32_t a);
		mystery f2(int32_t a);
	`)
	if err == nil {
		t.Fatal("expected errors")
	}
	if strings.Count(err.Error(), "unknown type") < 2 {
		t.Fatalf("want both errors reported, got: %v", err)
	}
}

func TestEvalExpr(t *testing.T) {
	api := mustParse(t, `
		const K = 10;
		type cl_float = float;
	`)
	env := Env{"n": 7, "m": 3}
	cases := []struct {
		src  string
		want int64
	}{
		{"5", 5},
		{"n", 7},
		{"K", 10},
		{"n * m", 21},
		{"n + m * 2", 13},
		{"(n + m) * 2", 20},
		{"n - m", 4},
		{"n / m", 2},
		{"n * sizeof(cl_float)", 28},
		{"sizeof(double) * K", 80},
	}
	for _, tc := range cases {
		e, err := parseExprString(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		got, err := EvalExpr(e, api, env)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	api := NewAPI("x")
	for _, src := range []string{"nope", "1 / 0", "sizeof(ghost)"} {
		e, err := parseExprString(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		if _, err := EvalExpr(e, api, nil); err == nil {
			t.Errorf("%s: expected evaluation error", src)
		}
	}
}

// parseExprString parses a standalone expression using the full parser.
func parseExprString(src string) (Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseExpr()
}

func TestNegativeConst(t *testing.T) {
	api := mustParse(t, `const CL_INVALID_VALUE = -30;`)
	v, ok := api.Const("CL_INVALID_VALUE")
	if !ok || v != -30 {
		t.Fatalf("const = %d, %t", v, ok)
	}
}

func TestHexConst(t *testing.T) {
	api := mustParse(t, `const FLAG = 0x10;`)
	if v, _ := api.Const("FLAG"); v != 16 {
		t.Fatalf("const = %d", v)
	}
}

func TestCommentsSkipped(t *testing.T) {
	api := mustParse(t, `
		// line comment
		/* block
		   comment */
		handle h; // trailing
	`)
	if len(api.Handles) != 1 {
		t.Fatal("handle not parsed")
	}
}

func TestVoidParameterList(t *testing.T) {
	api := mustParse(t, `int32_t getVersion(void);`)
	fn := api.Func("getVersion")
	if fn == nil || len(fn.Params) != 0 {
		t.Fatalf("fn = %+v", fn)
	}
}

func TestVoidPointerFirstParam(t *testing.T) {
	api := mustParse(t, `void f(void *p, size_t size) { parameter(p) { in; buffer(size); } }`)
	fn := api.Func("f")
	if len(fn.Params) != 2 || fn.Params[0].Type.Name != "void" || fn.Params[0].Type.Stars != 1 {
		t.Fatalf("params = %+v", fn.Params[0])
	}
}

func TestNeqSyncCondition(t *testing.T) {
	api := mustParse(t, `
		const FALSE = 0;
		void f(int32_t blocking) { if (blocking != FALSE) sync; else async; }
	`)
	fn := api.Func("f")
	if fn.Sync.Mode != SyncConditional || !fn.Sync.Negate {
		t.Fatalf("sync = %+v", fn.Sync)
	}
}

func TestSwappedBranchesNormalized(t *testing.T) {
	api := mustParse(t, `void f(int32_t b) { if (b == 0) async; else sync; }`)
	fn := api.Func("f")
	// "async when b==0" normalizes to "sync when b != 0".
	if fn.Sync.Mode != SyncConditional || !fn.Sync.Negate {
		t.Fatalf("sync = %+v", fn.Sync)
	}
}

func TestInferFigure4Unannotated(t *testing.T) {
	src := `
		api "opencl";
		handle cl_command_queue;
		handle cl_mem;
		handle cl_event;
		const CL_SUCCESS = 0;
		type cl_int = int32_t { success(CL_SUCCESS); };
		type cl_bool = uint32_t;
		type cl_uint = uint32_t;

		cl_int clEnqueueReadBuffer(
			cl_command_queue command_queue,
			cl_mem buf, cl_bool blocking_read,
			size_t offset, size_t size, void *ptr,
			cl_uint num_events_in_wait_list,
			const cl_event *event_wait_list, cl_event *event);
	`
	api, err := ParseNoValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	notes := Infer(api)
	fn := api.Func("clEnqueueReadBuffer")

	// Figure 4's commentary: event_wait_list inferred input buffer (const
	// pointer) sized by num_events_in_wait_list; event inferred as a
	// freshly allocated single-element output handle.
	ewl := fn.Param("event_wait_list")
	if ewl.Dir != DirIn || !ewl.IsBuffer {
		t.Fatalf("event_wait_list = %+v", ewl)
	}
	if ewl.SizeExpr.String() != "num_events_in_wait_list" {
		t.Fatalf("event_wait_list size = %s", ewl.SizeExpr)
	}
	ev := fn.Param("event")
	if ev.Dir != DirOut || !ev.IsElement || !ev.Allocates {
		t.Fatalf("event = %+v", ev)
	}
	// void *ptr: inferred output buffer sized by the "size" sibling.
	ptr := fn.Param("ptr")
	if ptr.Dir != DirOut || !ptr.IsBuffer || ptr.SizeExpr.String() != "size" {
		t.Fatalf("ptr = %+v", ptr)
	}
	// The inferred spec must validate as-is.
	if err := Validate(api); err != nil {
		t.Fatalf("inferred spec invalid: %v", err)
	}
	for _, n := range notes {
		if n.NeedsReview {
			t.Errorf("unexpected review note: %v", n)
		}
	}
}

func TestInferConstCharString(t *testing.T) {
	api, err := ParseNoValidate(`void log_msg(const char *msg);`)
	if err != nil {
		t.Fatal(err)
	}
	Infer(api)
	p := api.Func("log_msg").Param("msg")
	if p.Dir != DirIn || p.IsBuffer {
		t.Fatalf("msg = %+v", p)
	}
}

func TestInferScalarOutPointer(t *testing.T) {
	api, err := ParseNoValidate(`void get_count(int32_t *count);`)
	if err != nil {
		t.Fatal(err)
	}
	Infer(api)
	p := api.Func("get_count").Param("count")
	if p.Dir != DirOut || !p.IsElement || p.Allocates {
		t.Fatalf("count = %+v", p)
	}
}

func TestInferUnresolvedSizeNeedsReview(t *testing.T) {
	api, err := ParseNoValidate(`void write_all(const uint8_t *data);`)
	if err != nil {
		t.Fatal(err)
	}
	notes := Infer(api)
	found := false
	for _, n := range notes {
		if n.NeedsReview && n.Param == "data" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no review note for unsized buffer; notes = %v", notes)
	}
}

func TestInferAsyncEligibilityNote(t *testing.T) {
	api, err := ParseNoValidate(`
		const OK = 0;
		type st = int32_t { success(OK); };
		handle krn;
		st setArg(krn k, uint32_t idx, uint64_t value);
	`)
	if err != nil {
		t.Fatal(err)
	}
	notes := Infer(api)
	found := false
	for _, n := range notes {
		if n.Func == "setArg" && strings.Contains(n.Msg, "async") {
			found = true
		}
	}
	if !found {
		t.Fatalf("async eligibility not noted: %v", notes)
	}
}

func TestInferDoesNotOverrideAnnotations(t *testing.T) {
	api, err := ParseNoValidate(`
		void f(const int32_t *a, size_t a_size) {
			parameter(a) { inout; buffer(2); }
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	Infer(api)
	p := api.Func("f").Param("a")
	if p.Dir != DirInOut || p.SizeExpr.String() != "2" {
		t.Fatalf("explicit annotation overridden: %+v", p)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	api := mustParse(t, figure4)
	text := Print(api)
	api2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	text2 := Print(api2)
	if text != text2 {
		t.Fatalf("print not idempotent:\n--- first\n%s\n--- second\n%s", text, text2)
	}
	fn := api2.Func("clEnqueueReadBuffer")
	if fn == nil || fn.Sync.Mode != SyncConditional {
		t.Fatal("semantics lost in round trip")
	}
}

func TestPrintBareSimpleFunction(t *testing.T) {
	api := mustParse(t, `int32_t f(int32_t a);`)
	out := Print(api)
	if strings.Contains(out, "{") {
		t.Fatalf("simple function printed with a body:\n%s", out)
	}
}

func TestPrintInferredSpecValidates(t *testing.T) {
	// Workflow test: bare header -> Infer -> Print -> Parse (validating).
	src := `
		handle dev;
		const OK = 0;
		type st = int32_t { success(OK); };
		st dev_write(dev d, const uint8_t *data, size_t data_size);
		st dev_read(dev d, uint8_t *out, size_t out_size) {
			parameter(out) { out; buffer(out_size); }
		}
	`
	api, err := ParseNoValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	Infer(api)
	printed := Print(api)
	if _, err := Parse(printed); err != nil {
		t.Fatalf("printed inferred spec does not validate: %v\n%s", err, printed)
	}
}

func TestFuncLookupHelpers(t *testing.T) {
	api := mustParse(t, figure4)
	fn := api.Func("clEnqueueReadBuffer")
	if fn.ParamIndex("size") != 4 {
		t.Fatalf("ParamIndex(size) = %d", fn.ParamIndex("size"))
	}
	if fn.ParamIndex("ghost") != -1 || fn.Param("ghost") != nil {
		t.Fatal("ghost parameter found")
	}
	if api.Func("ghost") != nil {
		t.Fatal("ghost function found")
	}
}

func TestDirectionAndKindStrings(t *testing.T) {
	for _, d := range []Direction{DirDefault, DirIn, DirOut, DirInOut, Direction(9)} {
		if d.String() == "" {
			t.Errorf("empty Direction string")
		}
	}
	for _, k := range []BaseKind{KindVoid, KindBool, KindInt, KindUint, KindFloat, KindHandle, KindString, BaseKind(9)} {
		if k.String() == "" {
			t.Errorf("empty BaseKind string")
		}
	}
	for _, k := range []TrackKind{TrackNone, TrackConfig, TrackCreate, TrackDestroy, TrackModify, TrackKind(9)} {
		if k.String() == "" {
			t.Errorf("empty TrackKind string")
		}
	}
}

func TestTypeRefString(t *testing.T) {
	tr := TypeRef{Name: "cl_event", Stars: 1, Const: true}
	if tr.String() != "const cl_event*" {
		t.Fatalf("TypeRef.String() = %q", tr.String())
	}
}

func TestNoteString(t *testing.T) {
	n := Note{Func: "f", Param: "p", Msg: "m", NeedsReview: true}
	s := n.String()
	if !strings.Contains(s, "NEEDS REVIEW") || !strings.Contains(s, "f(p)") {
		t.Fatalf("note string = %q", s)
	}
}

// track(modify, obj, key): the key is a by-value integer in-parameter other
// than the object, on a modify. Each violation is an error positioned at
// the key parameter when there is one, else at the function.
func TestValidateTrackKeyErrors(t *testing.T) {
	const head = "handle h;\ntype st = int32_t;\n"
	cases := []struct {
		name, src, want, pos string
	}{
		{"key on destroy", "st f(h a, uint32_t k) { track(destroy, a, k); }", "only a modify takes a key", "3:1"},
		{"key on create", "st f(uint32_t k, h *o) { parameter(o) { out; element { allocates; } } track(create, o, k); }", "only a modify takes a key", "3:1"},
		{"unknown key", "st f(h a) { track(modify, a, k); }", "no such key parameter", "3:1"},
		{"key is the object", "st f(h a) { track(modify, a, a); }", "the key is the object itself", "3:6"},
		{"pointer key", "st f(h a, const uint32_t *k) { parameter(k) { in; buffer(1); } track(modify, a, k); }", "key k is a pointer", "3:11"},
		{"out key", "st f(h a, uint32_t k) { parameter(k) { out; } track(modify, a, k); }", "key k is an output", "3:11"},
		{"handle key", "st f(h a, h k) { track(modify, a, k); }", "key k is handle, want an integer scalar", "3:11"},
		{"float key", "st f(h a, double k) { track(modify, a, k); }", "key k is float, want an integer scalar", "3:11"},
		{"missing key ident", "st f(h a) { track(modify, a, ); }", "expected", "3:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(head + tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "spec:"+tc.pos) {
				t.Fatalf("error %q is not positioned at %s", err, tc.pos)
			}
		})
	}
}

// Each handle type has at most one destructor, which takes the object
// alone, and at most one untyped handle declaration has a destructor: the
// generated release is a type switch with one case per type. Each violation
// is an error positioned at the offending function.
func TestValidateDestructorErrors(t *testing.T) {
	const head = "handle a { type(*A); }\nhandle b { type(*A); }\nhandle u;\nhandle w;\ntype st = int32_t;\n"
	cases := []struct {
		name, src, want, pos string
	}{
		{"two destructors", "st f(a x) { track(destroy, x); }\nst g(a x) { parameter(x) { deallocates; } }", "g: second destructor of handle a (f is the first)", "7:1"},
		{"two destructors of one type", "st f(a x) { track(destroy, x); }\nst g(b x) { track(destroy, x); }", "second destructor of type(*A)", "7:1"},
		{"other parameters", "st f(a x, uint32_t flags) { track(destroy, x); }", "destructor of handle a takes other parameters", "6:1"},
		{"two untyped", "st f(u x) { track(destroy, x); }\nst g(w x) { track(destroy, x); }", "untyped handle u already has one (f)", "7:1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(head + tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "spec:"+tc.pos) {
				t.Fatalf("error %q is not positioned at %s", err, tc.pos)
			}
		})
	}
	// One destructor per type, each taking the object alone, and one untyped
	// declaration with a destructor: valid.
	if _, err := Parse(head + "st f(a x) { track(destroy, x); }\nst g(u x) { track(destroy, x); }\nst h(w x);"); err != nil {
		t.Fatal(err)
	}
}

// A keyed track prints in its three-argument form, and what it prints
// parses back to the same annotation; an unkeyed one keeps two arguments.
func TestPrintParseTrackKeyRoundTrip(t *testing.T) {
	api := mustParse(t, `
handle k;
type st = int32_t;
st set(k obj, uint32_t index, uint64_t value) { track(modify, obj, index); }
st build(k obj) { track(modify, obj); }
`)
	text := Print(api)
	for _, want := range []string{"track(modify, obj, index);", "track(modify, obj);"} {
		if !strings.Contains(text, want) {
			t.Fatalf("printed spec lacks %q:\n%s", want, text)
		}
	}
	api2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if text2 := Print(api2); text2 != text {
		t.Fatalf("print not idempotent:\n--- first\n%s\n--- second\n%s", text, text2)
	}
	for _, name := range []string{"set", "build"} {
		if got, want := api2.Func(name).Track, api.Func(name).Track; got != want {
			t.Fatalf("%s: track %+v after the round trip, want %+v", name, got, want)
		}
	}
	if got := api2.Func("set").Track.Key; got != "index" {
		t.Fatalf("set's key = %q, want index", got)
	}
}
