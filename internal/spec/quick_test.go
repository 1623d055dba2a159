package spec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randAPI generates a random but well-formed specification: a mix of
// handles, constants, alias types and functions with random parameter
// shapes and annotations. Used to property-test the printer/parser/
// validator pipeline far beyond the hand-written specs.
func randAPI(r *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "api \"rand%d\" version \"%d.%d\";\n", r.Intn(100), r.Intn(9), r.Intn(9))

	nHandles := 1 + r.Intn(3)
	for i := 0; i < nHandles; i++ {
		// A bare declaration, or any subset of what the generated API
		// server is told about the object behind the handle.
		var anns []string
		for _, ann := range []string{fmt.Sprintf("type(*Obj%d);", i), "invalid(MAGIC);", "stable;", "refcounted;"} {
			if r.Intn(2) == 0 {
				anns = append(anns, ann)
			}
		}
		if len(anns) == 0 {
			fmt.Fprintf(&b, "handle h%d;\n", i)
		} else {
			fmt.Fprintf(&b, "handle h%d { %s }\n", i, strings.Join(anns, " "))
		}
	}
	fmt.Fprintf(&b, "const OK = 0;\nconst MAGIC = %d;\n", r.Intn(1000)+1)
	if r.Intn(2) == 0 {
		b.WriteString("type st = int32_t { success(OK); };\n")
	} else {
		b.WriteString("type st = int32_t { success(OK); oom(MAGIC); };\n")
	}

	scalarTypes := []string{"uint32_t", "uint64_t", "int32_t", "size_t", "double", "bool"}
	nFuncs := 1 + r.Intn(6)
	for i := 0; i < nFuncs; i++ {
		var params []string
		var anns []string
		nParams := r.Intn(5)
		var scalars, handles []string
		// Always have one size-ish scalar available for buffers.
		params = append(params, "size_t size")
		scalars = append(scalars, "size")
		for j := 0; j < nParams; j++ {
			name := fmt.Sprintf("p%d", j)
			switch r.Intn(5) {
			case 0: // scalar
				ty := scalarTypes[r.Intn(len(scalarTypes))]
				params = append(params, ty+" "+name)
				if ty != "double" && ty != "bool" {
					scalars = append(scalars, name)
				}
			case 1: // handle by value
				params = append(params, fmt.Sprintf("h%d %s", r.Intn(nHandles), name))
				handles = append(handles, name)
			case 2: // in buffer sized by an existing scalar
				params = append(params, "const void *"+name)
				anns = append(anns, fmt.Sprintf("parameter(%s) { in; buffer(%s); }", name, scalars[r.Intn(len(scalars))]))
			case 3: // out buffer
				params = append(params, "void *"+name)
				anns = append(anns, fmt.Sprintf("parameter(%s) { out; buffer(size); }", name))
			default: // out element (scalar or allocated handle)
				if r.Intn(2) == 0 {
					params = append(params, "uint64_t *"+name)
					anns = append(anns, fmt.Sprintf("parameter(%s) { out; element; }", name))
				} else {
					params = append(params, fmt.Sprintf("h%d *%s", r.Intn(nHandles), name))
					anns = append(anns, fmt.Sprintf("parameter(%s) { out; element { allocates; } }", name))
				}
			}
		}
		// Synchrony: sync, async (only if no out params), or conditional
		// on a scalar.
		hasOut := false
		for _, a := range anns {
			if strings.Contains(a, "out;") {
				hasOut = true
			}
		}
		switch r.Intn(3) {
		case 0:
			if !hasOut {
				anns = append(anns, "async;")
			}
		case 1:
			anns = append(anns, fmt.Sprintf("if (%s == MAGIC) sync; else async;", scalars[r.Intn(len(scalars))]))
		}
		if r.Intn(3) == 0 {
			anns = append(anns, fmt.Sprintf("resource(bandwidth, %s);", scalars[r.Intn(len(scalars))]))
		}
		// Tracking: a modify of a handle parameter, keyed by an integer
		// scalar or not.
		if len(handles) > 0 {
			obj := handles[r.Intn(len(handles))]
			switch r.Intn(3) {
			case 0:
				anns = append(anns, fmt.Sprintf("track(modify, %s);", obj))
			case 1:
				anns = append(anns, fmt.Sprintf("track(modify, %s, %s);", obj, scalars[r.Intn(len(scalars))]))
			}
		}
		fmt.Fprintf(&b, "st f%d(%s)", i, strings.Join(params, ", "))
		if len(anns) == 0 {
			b.WriteString(";\n")
		} else {
			fmt.Fprintf(&b, " {\n  %s\n}\n", strings.Join(anns, "\n  "))
		}
	}
	return b.String()
}

// Property: every generated spec parses, validates, prints to a canonical
// fixed point, and the reparsed form is structurally identical.
func TestQuickRandomSpecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := randAPI(rand.New(rand.NewSource(seed)))
		api, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: parse: %v\n%s", seed, err, src)
			return false
		}
		printed := Print(api)
		api2, err := Parse(printed)
		if err != nil {
			t.Logf("seed %d: reparse: %v\n%s", seed, err, printed)
			return false
		}
		printed2 := Print(api2)
		if printed != printed2 {
			t.Logf("seed %d: print not a fixed point", seed)
			return false
		}
		if len(api.Funcs) != len(api2.Funcs) {
			return false
		}
		for name, hd := range api.Handles {
			hd2 := api2.Handles[name]
			if hd2 == nil || hd.GoType != hd2.GoType || (hd.Invalid == nil) != (hd2.Invalid == nil) ||
				hd.Stable != hd2.Stable || hd.Refcounted != hd2.Refcounted {
				return false
			}
		}
		if (api.Types["st"].OOM == nil) != (api2.Types["st"].OOM == nil) {
			return false
		}
		for i, fn := range api.Funcs {
			fn2 := api2.Funcs[i]
			if fn.Name != fn2.Name || len(fn.Params) != len(fn2.Params) ||
				fn.Sync.Mode != fn2.Sync.Mode || len(fn.Resources) != len(fn2.Resources) || fn.Track != fn2.Track {
				return false
			}
			for j, p := range fn.Params {
				q := fn2.Params[j]
				if p.Name != q.Name || p.Dir != q.Dir || p.IsBuffer != q.IsBuffer ||
					p.IsElement != q.IsElement || p.Allocates != q.Allocates {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: inference over stripped (annotation-free) versions of random
// declarations never panics and always yields a printable spec.
func TestQuickInferNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b strings.Builder
		b.WriteString("handle h0;\nconst OK = 0;\ntype st = int32_t { success(OK); };\n")
		for i := 0; i < 1+r.Intn(4); i++ {
			kinds := []string{
				"st g%d(uint32_t a, h0 x);",
				"st g%d(const uint8_t *data, size_t data_size);",
				"st g%d(h0 *out);",
				"st g%d(uint64_t *value);",
				"st g%d(const char *name);",
				"st g%d(void *buf, size_t size);",
			}
			fmt.Fprintf(&b, kinds[r.Intn(len(kinds))]+"\n", i)
		}
		api, err := ParseNoValidate(b.String())
		if err != nil {
			return false
		}
		Infer(api)
		out := Print(api)
		_, err = Parse(out)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
