package cava

import (
	"fmt"
	"go/format"
	"strings"

	"ava/internal/spec"
)

// GenOptions configures code generation.
type GenOptions struct {
	// Package name for the generated file.
	Package string
	// ModulePath prefixes the runtime imports (default "ava").
	ModulePath string
}

// GenStats summarizes a generation run — the developer-effort numbers
// behind the paper's claim that a single developer can virtualize an API in
// days (§1, §5): the specification is small, the stack is generated.
type GenStats struct {
	API            string
	Functions      int
	SpecLines      int
	GeneratedLines int // the whole file
	ServerLines    int // of those, the API server half (Implementation, Register)
}

// Generate emits a complete Go source file containing the API-specific
// stack components CAvA produces (§3): the typed guest library (Stubs, a
// stub per function that builds the call's argument vector on its own stack
// and hands it to the engine's typed entry, guest.Lib.Invoke, with a function
// descriptor resolved once at construction) and the API server (Register,
// one dispatch handler per function, over the typed silo-facing
// Implementation interface the developer implements). A handler does what
// the specification says about the call and nothing the silo should have to:
// it resolves every handle argument — scalar or in a buffer — through the
// VM's handle table to the silo type the handle declaration names, answering
// that declaration's invalid status when the handle is dead or of another
// type; calls the Implementation with typed arguments, out elements coming
// back by value; maps the status type's oom value to the server's
// out-of-memory sentinel; removes the handle a destroy call released; and
// inserts every handle the call produced, leaving absent (null) outs alone.
// The emitted file is gofmt-formatted and compiles against the AvA runtime.
func Generate(d *Descriptor, specSrc string, opts GenOptions) ([]byte, GenStats, error) {
	if opts.Package == "" {
		opts.Package = strings.ToLower(sanitizeIdent(d.Name))
	}
	if opts.ModulePath == "" {
		opts.ModulePath = "ava"
	}
	g := &generator{d: d, opts: opts}
	raw := g.emit()
	src, err := format.Source(raw)
	if err != nil {
		// A formatting failure is a generator bug; return the raw text in
		// the error for diagnosis.
		return nil, GenStats{}, fmt.Errorf("cava: generated code does not format: %w\n%s", err, raw)
	}
	_, serverHalf, _ := strings.Cut(string(src), serverStart)
	stats := GenStats{
		API:            d.Name,
		Functions:      len(d.Funcs),
		SpecLines:      countLines(specSrc),
		GeneratedLines: countLines(string(src)),
		ServerLines:    countLines(serverHalf),
	}
	return src, stats, nil
}

func countLines(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, "\n") + 1
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "genapi"
	}
	return b.String()
}

// client is the name of the generated guest-library type. Not Client: the
// API packages keep that name for their hand-written facade over it.
const client = "Stubs"

type generator struct {
	d    *Descriptor
	opts GenOptions
	b    strings.Builder
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

func (g *generator) emit() []byte {
	g.pf("// Code generated by cava from the %q API specification. DO NOT EDIT.\n", g.d.Name)
	g.pf("//\n// This file contains the API-specific components of the AvA remoting\n")
	g.pf("// stack: the typed guest library (%s) and the API server (Register, over\n", client)
	g.pf("// the silo-facing Implementation interface).\n")
	g.pf("package %s\n\n", g.opts.Package)
	g.pf("import (\n")
	for _, pkg := range []string{"cava", "guest", "marshal", "server"} {
		g.pf("\t%q\n", g.opts.ModulePath+"/internal/"+pkg)
	}
	g.pf(")\n\n")

	g.emitGuest()
	g.emitServer()
	return []byte(g.b.String())
}

// goType maps a parameter to its generated Go type at the API boundary.
func (g *generator) goType(pd *ParamDesc) (string, error) {
	if pd.IsPointer {
		if pd.IsBuffer {
			return "[]byte", nil
		}
		// Out element.
		base, err := g.scalarType(pd)
		if err != nil {
			return "", err
		}
		return "*" + base, nil
	}
	return g.scalarType(pd)
}

func (g *generator) scalarType(pd *ParamDesc) (string, error) {
	rt, err := g.d.API.Resolve(pd.TypeName)
	if err != nil {
		rt.Kind = pd.Kind
		rt.Size = pd.ElemSize
	}
	switch pd.Kind {
	case spec.KindHandle:
		return "marshal.Handle", nil
	case spec.KindString:
		return "string", nil
	case spec.KindBool:
		return "bool", nil
	case spec.KindFloat:
		if rt.Size == 4 {
			return "float32", nil
		}
		return "float64", nil
	case spec.KindInt:
		if rt.Size <= 4 {
			return "int32", nil
		}
		return "int64", nil
	case spec.KindUint:
		if rt.Size <= 4 {
			return "uint32", nil
		}
		return "uint64", nil
	}
	return "", fmt.Errorf("cava: no Go mapping for parameter %q", pd.Name)
}

// retType maps a function's return value.
func (g *generator) retType(fd *FuncDesc) string {
	switch fd.RetKind {
	case spec.KindVoid:
		return ""
	case spec.KindHandle:
		return "marshal.Handle"
	case spec.KindUint:
		return "uint64"
	default:
		return "int32"
	}
}

func exportName(name string) string {
	if name == "" {
		return "F"
	}
	return strings.ToUpper(name[:1]) + name[1:]
}

func (g *generator) emitGuest() {
	c := client
	table := unexportName(c) + "Sigs"
	g.pf("// %s is the function table these stubs were generated from, in\n", table)
	g.pf("// descriptor order: a function's index here is its id on the wire.\n")
	g.pf("var %s = [...]string{\n", table)
	for _, fd := range g.d.Funcs {
		g.pf("\t%q,\n", fd.Signature())
	}
	g.pf("}\n\n")

	g.pf("// %s is the generated guest library for the %q API: one typed stub per\n", c, g.d.Name)
	g.pf("// virtualized function. A stub builds the call's argument vector on its own\n")
	g.pf("// stack and hands it to the stub engine with the function's descriptor,\n")
	g.pf("// which New%s resolved once.\n", c)
	g.pf("type %s struct {\n\tlib  *guest.Lib\n\tfn   []*cava.FuncDesc // indexed like %s\n\topts guest.CallOptions\n}\n\n", c, table)
	g.pf("// New%s wraps an attached guest library. It panics if the library speaks a\n", c)
	g.pf("// different function table than the one these stubs were generated from:\n")
	g.pf("// the stubs are stale (regenerate them) or the library is another API's.\n")
	g.pf("func New%s(lib *guest.Lib) *%s {\n", c, c)
	g.pf("\tfn, err := lib.Descriptor().Resolve(%s[:])\n", table)
	g.pf("\tif err != nil {\n\t\tpanic(\"%s: generated stubs do not match the library's descriptor: \" + err.Error())\n\t}\n", g.opts.Package)
	g.pf("\treturn &%s{lib: lib, fn: fn}\n}\n\n", c)
	g.pf("// Lib exposes the underlying stub engine.\n")
	g.pf("func (c *%s) Lib() *guest.Lib { return c.lib }\n\n", c)
	g.pf("// With returns a client whose calls also carry opts (deadline, priority,\n")
	g.pf("// overload retry, flush slack); the receiver is unchanged, so clients for\n")
	g.pf("// different urgency classes can share one attached library. Options fold\n")
	g.pf("// over the receiver's set; pass a guest.CallOptions literal to replace it\n")
	g.pf("// wholesale.\n")
	g.pf("func (c *%s) With(opts ...guest.CallOption) *%s {\n\td := *c\n\td.opts = guest.ApplyCallOptions(d.opts, opts...)\n\treturn &d\n}\n\n", c, c)

	for _, fd := range g.d.Funcs {
		g.emitGuestStub(fd)
	}
}

// wireValue is the expression that turns a stub parameter of Go type ty into
// its marshal.Value.
func wireValue(ty, name string) string {
	switch ty {
	case "marshal.Handle":
		return "marshal.HandleVal(" + name + ")"
	case "string":
		return "marshal.Str(" + name + ")"
	case "bool":
		return "marshal.Bool(" + name + ")"
	case "float32":
		return "marshal.Float(float64(" + name + "))"
	case "float64":
		return "marshal.Float(" + name + ")"
	case "int32":
		return "marshal.Int(int64(" + name + "))"
	case "int64":
		return "marshal.Int(" + name + ")"
	case "uint32":
		return "marshal.Uint(uint64(" + name + "))"
	case "uint64":
		return "marshal.Uint(" + name + ")"
	}
	return "marshal.BytesVal(" + name + ")" // []byte: a buffer of any direction
}

func (g *generator) emitGuestStub(fd *FuncDesc) {
	var params []string
	types := make([]string, len(fd.Params))
	for i := range fd.Params {
		pd := &fd.Params[i]
		ty, err := g.goType(pd)
		if err != nil {
			ty = "any"
		}
		types[i] = ty
		params = append(params, fmt.Sprintf("%s %s", safeParam(pd.Name), ty))
	}
	rt := g.retType(fd)
	mode := "synchronous"
	switch fd.Sync.Mode {
	case spec.AsyncAlways:
		mode = "asynchronous"
	case spec.SyncConditional:
		mode = "conditionally synchronous on " + fd.Sync.CondParam
	}
	g.pf("// %s forwards %s (%s).\n", exportName(fd.Name), fd.Name, mode)
	zero, result := "", "error"
	if rt != "" {
		zero, result = "0, ", "("+rt+", error)"
	}
	g.pf("func (c *%s) %s(%s) %s {\n", client, exportName(fd.Name), strings.Join(params, ", "), result)

	// The argument vector: a fixed array in the stub's frame. An out element
	// the caller wants is announced by a length placeholder and comes back in
	// its slot; one it does not want stays null.
	args, elems := "nil", false
	if len(fd.Params) > 0 {
		args = "args[:]"
		g.pf("\tvar args [%d]marshal.Value\n", len(fd.Params))
	}
	for i := range fd.Params {
		pd := &fd.Params[i]
		name := safeParam(pd.Name)
		if pd.IsElement {
			elems = true
			g.pf("\tif %s != nil {\n\t\targs[%d] = marshal.Len(%d)\n\t}\n", name, i, pd.ElemSize)
			continue
		}
		g.pf("\targs[%d] = %s\n", i, wireValue(types[i], name))
	}
	call := fmt.Sprintf("c.lib.Invoke(c.fn[%d], &c.opts, %s)", fd.ID, args)
	if rt == "" && !elems {
		g.pf("\t_, err := %s\n\treturn err\n}\n\n", call)
		return
	}
	ret := "ret"
	if rt == "" {
		ret = "_"
	}
	g.pf("\t%s, err := %s\n", ret, call)
	g.pf("\tif err != nil {\n\t\treturn %serr\n\t}\n", zero)
	for i := range fd.Params {
		pd := &fd.Params[i]
		if !pd.IsElement {
			continue
		}
		name := safeParam(pd.Name)
		g.pf("\tif elem := args[%d]; %s != nil && !elem.IsNull() {\n", i, name)
		switch base := strings.TrimPrefix(types[i], "*"); base {
		case "marshal.Handle":
			g.pf("\t\t*%s = elem.Handle()\n", name)
		case "float32", "float64":
			g.pf("\t\tasFloat, _ := elem.AsFloat()\n\t\t*%s = %s(asFloat)\n", name, base)
		default:
			g.pf("\t\tasInt, _ := elem.AsInt()\n\t\t*%s = %s(asInt)\n", name, base)
		}
		g.pf("\t}\n")
	}
	switch rt {
	case "":
		g.pf("\treturn nil\n}\n\n")
	case "marshal.Handle":
		g.pf("\treturn ret.Handle(), nil\n}\n\n")
	case "uint64":
		g.pf("\treturn ret.Uint(), nil\n}\n\n")
	default:
		g.pf("\tstatus, _ := ret.AsInt()\n\treturn int32(status), nil\n}\n\n")
	}
}

func unexportName(name string) string {
	return strings.ToLower(name[:1]) + name[1:]
}

func safeParam(name string) string {
	switch name {
	case "type", "func", "map", "range", "var", "const", "len", "cap", "copy", "c", "v",
		"args", "ret", "err", "elem", "asInt", "asFloat", "status", "ok", "ctx": // keywords, builtins, the stubs' and dispatchers' locals
		return name + "_"
	}
	return name
}

// siloType is the Go type the Implementation sees for a parameter or return
// value of the named type: the handle declaration's type(*T) for a handle
// (any when it names none), "" for anything else.
func (g *generator) siloType(typeName string) string {
	hd := g.handleDecl(typeName)
	switch {
	case hd == nil:
		return ""
	case hd.GoType == "":
		return "any"
	}
	return hd.GoType
}

// handleDecl returns the handle declaration typeName names, through aliases;
// nil for a type that is not a handle.
func (g *generator) handleDecl(typeName string) *spec.HandleDecl {
	return g.d.API.Handle(typeName)
}

// implType maps a parameter to its type in the Implementation interface:
// handles are silo objects, an out element is the bare element (it is a
// result, returned by value), everything else is as in the guest stub.
func (g *generator) implType(pd *ParamDesc) string {
	if silo := g.siloType(pd.TypeName); silo != "" {
		if pd.IsBuffer {
			return "[]" + silo
		}
		return silo
	}
	ty, err := g.goType(pd)
	if err != nil {
		return "any"
	}
	return strings.TrimPrefix(ty, "*")
}

// implRet is retType for the Implementation: a returned handle is the silo
// object, which the dispatcher inserts.
func (g *generator) implRet(fd *FuncDesc, fn *spec.Func) string {
	if fd.RetKind == spec.KindHandle {
		return g.siloType(fn.Ret.Name)
	}
	return g.retType(fd)
}

// typeValue evaluates a declaration-level annotation value (success, oom,
// invalid); ok is false when the declaration carries none.
func (g *generator) typeValue(e spec.Expr) (int64, bool) {
	if e == nil {
		return 0, false
	}
	v, err := spec.EvalExpr(e, g.d.API, nil)
	return v, err == nil
}

// statusSlot finds where a function reports its status: the return value
// when its type declares a success value, else the first out element whose
// type does (the errcode_ret of a handle-returning create). param is -1 for
// the return value; ok is false for a function with no status.
func (g *generator) statusSlot(fd *FuncDesc) (name string, param int, success int64, ok bool) {
	if fd.HasSuccess {
		return "ret", -1, fd.SuccessVal, true
	}
	for i := range fd.Params {
		pd := &fd.Params[i]
		if td := g.d.API.Types[pd.TypeName]; pd.IsElement && td != nil {
			if v, ok := g.typeValue(td.Success); ok {
				return safeParam(pd.Name), i, v, true
			}
		}
	}
	return "", 0, 0, false
}

// serverStart is the first line of the generated API server half.
const serverStart = "// Implementation is the silo surface the generated API server targets:\n"

func (g *generator) emitServer() {
	api := g.d.API
	g.pf(serverStart)
	g.pf("// the developer implements these against the vendor runtime, with handles\n")
	g.pf("// already resolved to silo objects and results returned by value;\n")
	g.pf("// everything else is generated.\n")
	g.pf("type Implementation interface {\n")
	for i, fd := range g.d.Funcs {
		params := []string{"ctx *server.Context"}
		var results []string
		for j := range fd.Params {
			pd := &fd.Params[j]
			decl := safeParam(pd.Name) + " " + g.implType(pd)
			if pd.IsElement {
				results = append(results, decl)
			} else {
				params = append(params, decl)
			}
		}
		rt := g.implRet(fd, api.Funcs[i])
		switch {
		case rt != "" && len(results) > 0:
			rt = "(" + strings.Join(append(results, "ret "+rt), ", ") + ")"
		case len(results) > 0:
			rt = "(" + strings.Join(results, ", ") + ")"
		}
		g.pf("\t%s(%s) %s\n", exportName(fd.Name), strings.Join(params, ", "), rt)
	}
	g.pf("}\n\n")

	g.pf("// Register binds the generated dispatch handlers to reg, and the release\n")
	g.pf("// that gives back, through each handle type's destructor, what an ended\n")
	g.pf("// server incarnation still held.\n")
	g.pf("func Register(reg *server.Registry, impl Implementation) {\n")
	for i, fd := range g.d.Funcs {
		g.emitDispatch(fd, api.Funcs[i])
	}
	g.emitRelease()
	g.pf("}\n")
}

// destroyed is the rule a destroy call's outcome is judged by, spelled once
// for the handler's drop of the handle and for the release's loop: ok is the
// condition that the call succeeded (empty for a function with no status),
// gone that a refcounted object's last reference went (empty otherwise).
func destroyed(hd *spec.HandleDecl, stName string, success int64, hasStatus bool, obj string) (ok, gone string) {
	if hasStatus {
		ok = fmt.Sprintf("%s == %d", stName, success)
	}
	if hd.Refcounted {
		gone = obj + ".Released()"
	}
	return ok, gone
}

// emitRelease installs the registry's release: a type switch over the
// handle declarations' type(*T) whose cases call each type's one destructor
// (spec.API.Destructor) through the Implementation — a refcounted object's
// until it reports Released() or the destructor fails. The one untyped
// declaration with a destructor takes the default case, and then the typed
// declarations without one get an empty case, so default never sees them.
// An API with no destructor installs none.
func (g *generator) emitRelease() {
	api := g.d.API
	var cases []string
	var fallback string
	hasCase := map[string]bool{}
	for i, fn := range api.Funcs {
		_, hd := api.Destructor(fn)
		if hd == nil {
			continue
		}
		fd := g.d.Funcs[i]
		call := fmt.Sprintf("impl.%s(ctx, obj)", exportName(fd.Name))
		_, stParam, success, hasStatus := g.statusSlot(fd)
		succeeded, gone := destroyed(hd, "ret", success, hasStatus && stParam < 0, "obj")
		body := call
		switch {
		case gone != "" && succeeded != "":
			body = fmt.Sprintf("for ret := %s; %s && !%s; ret = %s {\n}", call, succeeded, gone, call)
		case gone != "":
			body = fmt.Sprintf("for %s; !%s; %s {\n}", call, gone, call)
		}
		body = fmt.Sprintf("// %s destroys a %s.\n%s", fd.Name, hd.Name, body)
		if hd.GoType == "" {
			fallback = "default:\n" + body
			continue
		}
		hasCase[hd.GoType] = true
		cases = append(cases, "case "+hd.GoType+":\n"+body)
	}
	if len(cases) == 0 && fallback == "" {
		return
	}
	if fallback != "" {
		var quiet []string
		for _, name := range api.HandleNames() {
			if ty := api.Handles[name].GoType; ty != "" && !hasCase[ty] {
				hasCase[ty] = true
				quiet = append(quiet, ty)
			}
		}
		if len(quiet) > 0 {
			cases = append(cases, "case "+strings.Join(quiet, ", ")+": // no destructor")
		}
		cases = append(cases, fallback)
	}
	g.pf("\treg.SetRelease(func(ctx *server.Context, obj any) {\n")
	g.pf("\t\tswitch obj := obj.(type) {\n")
	for _, c := range cases {
		g.pf("\t\t%s\n", c)
	}
	g.pf("\t\t}\n\t})\n")
}

// readArg is the expression that reads scalar argument i as Go type ty.
func readArg(ty string, i int) string {
	switch ty {
	case "string":
		return fmt.Sprintf("v.Str(%d)", i)
	case "bool":
		return fmt.Sprintf("v.Bool(%d)", i)
	case "float32":
		return fmt.Sprintf("float32(v.Float(%d))", i)
	case "float64":
		return fmt.Sprintf("v.Float(%d)", i)
	case "int32":
		return fmt.Sprintf("int32(v.Int(%d))", i)
	case "int64":
		return fmt.Sprintf("v.Int(%d)", i)
	case "uint32":
		return fmt.Sprintf("uint32(v.Uint(%d))", i)
	case "uint64":
		return fmt.Sprintf("v.Uint(%d)", i)
	}
	return fmt.Sprintf("v.Bytes(%d)", i) // []byte: a buffer of any direction
}

func (g *generator) emitDispatch(fd *FuncDesc, fn *spec.Func) {
	api := g.d.API
	g.pf("\treg.MustRegister(%q, func(v *server.Invocation) error {\n", fd.Name)
	stName, stParam, success, hasStatus := g.statusSlot(fd)
	retHandle := fd.RetKind == spec.KindHandle

	// invalid answers a handle argument that did not resolve: the handle
	// type's invalid status in the function's status slot, or a failed call
	// when either is missing.
	invalid := func(i int, hd *spec.HandleDecl) {
		val, ok := g.typeValue(hd.Invalid)
		switch {
		case !ok || !hasStatus:
			g.pf("\t\tif !ok {\n\t\t\treturn v.BadHandle(%d)\n\t\t}\n", i)
		case stParam < 0:
			g.pf("\t\tif !ok {\n\t\t\tv.SetStatus(%d) // %s\n\t\t\treturn nil\n\t\t}\n", val, hd.Invalid)
		default:
			g.pf("\t\tif !ok {\n\t\t\tif !v.IsNull(%d) {\n\t\t\t\tv.SetOutInt(%d, %d) // %s\n\t\t\t}\n", stParam, stParam, val, hd.Invalid)
			if retHandle {
				g.pf("\t\t\tv.SetRetHandle(0)\n")
			}
			g.pf("\t\t\treturn nil\n\t\t}\n")
		}
	}
	// insert is the expression that puts a produced object into the VM's
	// handle table.
	insert := func(hd *spec.HandleDecl, obj string) string {
		if hd.Stable {
			return "v.Ctx.InsertStable(" + obj + ")"
		}
		return "v.Ctx.Handles.Insert(" + obj + ")"
	}

	var args, results, after []string
	for i := range fd.Params {
		pd := &fd.Params[i]
		name, ty := safeParam(pd.Name), g.implType(pd)
		hd := g.handleDecl(pd.TypeName)
		switch {
		case pd.IsElement:
			results = append(results, name)
			set := fmt.Sprintf("v.SetOutUint(%d, uint64(%s))", i, name)
			switch {
			case hd != nil:
				after = append(after, fmt.Sprintf("if %s != nil && !v.IsNull(%d) {\nv.SetOutHandle(%d, %s)\n}", name, i, i, insert(hd, name)))
				continue
			case pd.Kind == spec.KindFloat:
				set = fmt.Sprintf("v.SetOutFloat(%d, float64(%s))", i, name)
			case pd.Kind == spec.KindInt:
				set = fmt.Sprintf("v.SetOutInt(%d, int64(%s))", i, name)
			}
			after = append(after, fmt.Sprintf("if !v.IsNull(%d) {\n%s\n}", i, set))
		case hd != nil && pd.IsBuffer && pd.Out():
			g.pf("\t\t%s := make(%s, len(v.Bytes(%d))/8)\n", name, ty, i)
			args = append(args, name)
			after = append(after, fmt.Sprintf("server.PublishList(v.Ctx, v.Bytes(%d), %s, %v)", i, name, hd.Stable))
		case hd != nil: // by value, or an array of them in a buffer
			resolve := fmt.Sprintf("server.Resolve[%s](v.Ctx, v.Handle(%d))", ty, i)
			if pd.IsBuffer {
				resolve = fmt.Sprintf("server.ResolveList[%s](v.Ctx, v.Bytes(%d))", ty[2:], i)
			}
			g.pf("\t\t%s, ok := %s\n", name, resolve)
			invalid(i, hd)
			args = append(args, name)
		default:
			args = append(args, readArg(ty, i))
		}
	}

	call := fmt.Sprintf("impl.%s(%s)", exportName(fd.Name), strings.Join(append([]string{"v.Ctx"}, args...), ", "))
	rt := g.implRet(fd, fn)
	if rt != "" {
		results = append(results, "ret")
	}
	if len(results) > 0 {
		call = strings.Join(results, ", ") + " := " + call
	}
	g.pf("\t\t%s\n", call)

	// A value of a type that declares oom(V) came back as V.
	oom := func(name, typeName string) {
		if td := api.Types[typeName]; td != nil {
			if val, ok := g.typeValue(td.OOM); ok {
				g.pf("\t\tif %s == %d { // %s\n\t\t\treturn v.OOM()\n\t\t}\n", name, val, td.OOM)
			}
		}
	}
	for i := range fd.Params {
		if pd := &fd.Params[i]; pd.IsElement {
			oom(safeParam(pd.Name), pd.TypeName)
		}
	}
	if rt != "" {
		oom("ret", fn.Ret.Name)
	}

	// The object a destroy call released leaves the table: when the call
	// succeeded and, for a refcounted object, its last reference went.
	for i := range fd.Params {
		pd := &fd.Params[i]
		hd := g.handleDecl(pd.TypeName)
		if pd.IsPointer || hd == nil || !(pd.Dealloc || fd.Track.Kind == spec.TrackDestroy && fd.TrackIdx == i) {
			continue
		}
		var cond []string
		succeeded, gone := destroyed(hd, stName, success, hasStatus, safeParam(pd.Name))
		for _, c := range []string{succeeded, gone} {
			if c != "" {
				cond = append(cond, c)
			}
		}
		drop := fmt.Sprintf("v.Ctx.Handles.Remove(v.Handle(%d))", i)
		if len(cond) > 0 {
			drop = "if " + strings.Join(cond, " && ") + " {\n" + drop + "\n}"
		}
		after = append([]string{drop}, after...)
	}

	for _, stmt := range after {
		g.pf("\t\t%s\n", stmt)
	}
	switch {
	case rt == "":
	case retHandle:
		g.pf("\t\tif ret != nil {\n\t\t\tv.SetRetHandle(%s)\n\t\t} else {\n\t\t\tv.SetRetHandle(0)\n\t\t}\n", insert(g.handleDecl(fn.Ret.Name), "ret"))
	case rt == "uint64":
		g.pf("\t\tv.SetRet(marshal.Uint(ret))\n")
	default:
		g.pf("\t\tv.SetStatus(int64(ret))\n")
	}
	g.pf("\t\treturn nil\n\t})\n")
}
