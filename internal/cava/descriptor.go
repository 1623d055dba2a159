// Package cava is the AvA stack generator.
//
// CAvA consumes a validated API specification and produces the API-specific
// components of the remoting stack. It has two outputs:
//
//   - A Descriptor: flat, index-addressed runtime metadata that drives the
//     generic guest stub engine, the hypervisor router's policy checks, and
//     the API server's dispatcher. This is the form the rest of the runtime
//     consumes.
//   - Generated Go source for typed guest bindings and server dispatch
//     scaffolding (gen.go), the analogue of the C code the paper's CAvA
//     emits for guest library, driver and API server.
package cava

import (
	"fmt"
	"math"
	"strings"

	"ava/internal/marshal"
	"ava/internal/spec"
)

// ParamDesc is the compiled form of a parameter.
type ParamDesc struct {
	Name      string
	TypeName  string        // declared type name, for code generation
	Kind      spec.BaseKind // scalar kind, or element kind for pointers
	ElemSize  int           // bytes per element for buffers/elements
	Dir       spec.Direction
	IsPointer bool
	IsBuffer  bool
	IsElement bool
	Allocates bool
	Dealloc   bool
	SizeExpr  spec.Expr // element count (buffers only)
}

// In reports whether the parameter carries data guest→server.
func (p *ParamDesc) In() bool {
	if !p.IsPointer {
		return true
	}
	return p.Dir == spec.DirIn || p.Dir == spec.DirInOut
}

// Out reports whether the parameter carries data server→guest.
func (p *ParamDesc) Out() bool {
	return p.IsPointer && (p.Dir == spec.DirOut || p.Dir == spec.DirInOut)
}

// CheckScalar reports whether v is an acceptable wire form for this
// non-pointer parameter: the one rule the guest engine applies before it
// sends a call and the API server applies before it trusts one. Handles and
// strings may be null; a bool may travel as an integer and an integer as a
// bool or as either signedness.
func (p *ParamDesc) CheckScalar(v *marshal.Value) error {
	k := v.Kind()
	ok := true
	switch p.Kind {
	case spec.KindHandle:
		ok = k == marshal.KindHandle || k == marshal.KindNull
	case spec.KindString:
		ok = k == marshal.KindString || k == marshal.KindNull
	case spec.KindFloat:
		ok = k == marshal.KindFloat
	case spec.KindBool, spec.KindInt, spec.KindUint:
		ok = k == marshal.KindInt || k == marshal.KindUint || k == marshal.KindBool
	}
	if !ok {
		return fmt.Errorf("%v sent as %v", p.Kind, k)
	}
	return nil
}

// ResourceDesc is a compiled resource estimate: one resource a function
// consumes and the annotation expressions that price it (several
// annotations naming the same resource are summed).
type ResourceDesc struct {
	Resource string
	Amounts  []spec.Expr
}

// FuncDesc is the compiled form of one API function.
type FuncDesc struct {
	ID     uint32
	Name   string
	Params []ParamDesc

	RetKind    spec.BaseKind
	HasSuccess bool
	SuccessVal int64

	Sync         spec.SyncSpec
	CondParamIdx int // parameter index for conditional synchrony, else -1

	Resources []ResourceDesc
	Track     spec.TrackAnn
	TrackIdx  int // parameter index of the tracked object, else -1
	// TrackKeyIdx is the parameter index of a keyed modify's key
	// (track(modify, obj, key)), else -1.
	TrackKeyIdx int

	NumOuts int // count of out/inout parameters (Reply.Outs arity)

	// DomainIdx is the parameter index of the call's ordering domain — the
	// first non-pointer handle parameter (for OpenCL enqueues, the command
	// queue) — or -1 for handle-less calls, which share a single fallback
	// domain. The server's dispatcher preserves FIFO order within a domain
	// while executing independent domains concurrently.
	DomainIdx int

	sig string // Signature, rendered once at compile time
}

// CreatedHandle is the created-handle rule: which handle a `track create`
// call produced, read off its successful reply — the tracked out parameter's
// slot of outs if the annotation names one, else a handle-typed return
// value; 0 for any other function or a reply that carries neither. The API
// server's record log and the failover guardian's shadow log both key an
// object's history by it.
func (f *FuncDesc) CreatedHandle(ret marshal.Value, outs []marshal.Value) marshal.Handle {
	if f.Track.Kind != spec.TrackCreate {
		return 0
	}
	v := ret
	if f.TrackIdx >= 0 {
		slot := 0
		for i := range f.Params[:f.TrackIdx] {
			if f.Params[i].Out() {
				slot++
			}
		}
		if !f.Params[f.TrackIdx].Out() || slot >= len(outs) {
			return 0
		}
		v = outs[slot]
	}
	if v.Kind() != marshal.KindHandle {
		return 0
	}
	return v.Handle()
}

// Descriptor is the compiled stack metadata for one API.
type Descriptor struct {
	API    *spec.API
	Name   string
	Funcs  []*FuncDesc
	byName map[string]*FuncDesc
}

// Compile lowers a validated API specification into a Descriptor.
func Compile(api *spec.API) (*Descriptor, error) {
	if err := spec.Validate(api); err != nil {
		return nil, err
	}
	d := &Descriptor{
		API:    api,
		Name:   api.Name,
		byName: make(map[string]*FuncDesc, len(api.Funcs)),
	}
	for i, fn := range api.Funcs {
		fd, err := compileFunc(api, fn, uint32(i))
		if err != nil {
			return nil, err
		}
		d.Funcs = append(d.Funcs, fd)
		d.byName[fd.Name] = fd
	}
	return d, nil
}

// MustCompile parses and compiles src, panicking on error. For specs
// shipped inside the binary (the OpenCL and MVNC stacks), where a failure
// is a build bug.
func MustCompile(src string) *Descriptor {
	api, err := spec.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("cava: shipped spec does not parse: %v", err))
	}
	d, err := Compile(api)
	if err != nil {
		panic(fmt.Sprintf("cava: shipped spec does not compile: %v", err))
	}
	return d
}

func compileFunc(api *spec.API, fn *spec.Func, id uint32) (*FuncDesc, error) {
	fd := &FuncDesc{
		ID:           id,
		Name:         fn.Name,
		Sync:         fn.Sync,
		Track:        fn.Track,
		CondParamIdx: -1,
		TrackIdx:     -1,
		TrackKeyIdx:  -1,
		DomainIdx:    -1,
	}

	rt, err := api.Resolve(fn.Ret.Name)
	if err != nil {
		return nil, fmt.Errorf("cava: %s: %v", fn.Name, err)
	}
	fd.RetKind = rt.Kind
	if v, ok := api.SuccessValue(fn); ok {
		fd.HasSuccess = true
		fd.SuccessVal = v
	}

	for _, prm := range fn.Params {
		pd, err := compileParam(api, prm)
		if err != nil {
			return nil, fmt.Errorf("cava: %s(%s): %v", fn.Name, prm.Name, err)
		}
		if pd.Out() {
			fd.NumOuts++
		}
		if fd.DomainIdx < 0 && !pd.IsPointer && pd.Kind == spec.KindHandle {
			fd.DomainIdx = len(fd.Params)
		}
		fd.Params = append(fd.Params, pd)
	}

	if fn.Sync.Mode == spec.SyncConditional {
		fd.CondParamIdx = fn.ParamIndex(fn.Sync.CondParam)
		if fd.CondParamIdx < 0 {
			return nil, fmt.Errorf("cava: %s: missing sync condition parameter", fn.Name)
		}
	}
	for _, res := range fn.Resources {
		i := fd.ResourceIndex(res.Resource)
		if i < 0 {
			i = len(fd.Resources)
			fd.Resources = append(fd.Resources, ResourceDesc{Resource: res.Resource})
		}
		fd.Resources[i].Amounts = append(fd.Resources[i].Amounts, res.Amount)
	}
	if fn.Track.Kind != spec.TrackNone && fn.Track.Param != "" {
		fd.TrackIdx = fn.ParamIndex(fn.Track.Param)
	}
	if fn.Track.Key != "" {
		fd.TrackKeyIdx = fn.ParamIndex(fn.Track.Key)
	}
	fd.sig = fd.signature()
	return fd, nil
}

func compileParam(api *spec.API, prm *spec.Param) (ParamDesc, error) {
	rt, err := api.Resolve(prm.Type.Name)
	if err != nil {
		return ParamDesc{}, err
	}
	pd := ParamDesc{
		Name:      prm.Name,
		TypeName:  prm.Type.Name,
		Kind:      rt.Kind,
		Dir:       prm.Dir,
		IsPointer: prm.Type.Stars > 0,
		IsBuffer:  prm.IsBuffer,
		IsElement: prm.IsElement,
		Allocates: prm.Allocates,
		Dealloc:   prm.Deallocates,
		SizeExpr:  prm.SizeExpr,
	}
	if pd.IsPointer {
		es, err := api.ElemSize(prm.Type.Name)
		if err != nil {
			return ParamDesc{}, err
		}
		pd.ElemSize = es
		if pd.Dir == spec.DirDefault {
			// Validation guarantees pointer params are annotated; const
			// pointers default to in.
			pd.Dir = spec.DirIn
		}
		// `const char*` without buffer/element is a string value.
		if rt.Kind == spec.KindString || (prm.Type.Name == "char" && !pd.IsBuffer && !pd.IsElement) {
			pd.Kind = spec.KindString
			pd.IsPointer = false
			pd.IsBuffer = false
		}
	} else if rt.Kind == spec.KindString {
		pd.Kind = spec.KindString
	}
	return pd, nil
}

// Signature renders what a generated stub depends on — the function's name,
// each parameter's kind, shape (scalar, buffer, element) and direction, and
// the return kind — as one line, e.g.
// "load(handle,uint,out uint[])int". Generated guest libraries carry the
// table of signatures they were emitted from; Resolve checks it.
func (f *FuncDesc) Signature() string { return f.sig }

func (f *FuncDesc) signature() string {
	var b strings.Builder
	b.WriteString(f.Name)
	b.WriteByte('(')
	for i := range f.Params {
		pd := &f.Params[i]
		if i > 0 {
			b.WriteByte(',')
		}
		if pd.IsPointer {
			b.WriteString(pd.Dir.String())
			b.WriteByte(' ')
		}
		b.WriteString(pd.Kind.String())
		switch {
		case pd.IsBuffer:
			b.WriteString("[]")
		case pd.IsElement:
			b.WriteByte('*')
		}
	}
	b.WriteByte(')')
	b.WriteString(f.RetKind.String())
	return b.String()
}

// Resolve matches a generated guest library's function table against the
// descriptor, entry i against function id i, and returns the descriptors in
// that order for the stubs to index. Any disagreement — a different function
// count, or a function whose Signature is not the one the stubs were
// generated from — is an error: a stub would otherwise marshal for one
// function and send the id of another.
func (d *Descriptor) Resolve(sigs []string) ([]*FuncDesc, error) {
	if len(sigs) != len(d.Funcs) {
		return nil, fmt.Errorf("cava: %s: stubs know %d functions, descriptor has %d", d.Name, len(sigs), len(d.Funcs))
	}
	for i, fd := range d.Funcs {
		if got := fd.Signature(); got != sigs[i] {
			return nil, fmt.Errorf("cava: %s: function %d is %s, stubs were generated for %s", d.Name, i, got, sigs[i])
		}
	}
	return d.Funcs, nil
}

// Lookup returns the descriptor for a function name.
func (d *Descriptor) Lookup(name string) (*FuncDesc, bool) {
	fd, ok := d.byName[name]
	return fd, ok
}

// ByID returns the descriptor for a function index.
func (d *Descriptor) ByID(id uint32) (*FuncDesc, bool) {
	if int(id) >= len(d.Funcs) {
		return nil, false
	}
	return d.Funcs[id], true
}

// argScalar reads the scalar value of parameter i from an argument vector
// without building an environment map (hot path).
func (f *FuncDesc) argScalar(args []marshal.Value, i int) (int64, bool) {
	if i < 0 || i >= len(args) || i >= len(f.Params) || f.Params[i].IsPointer {
		return 0, false
	}
	return args[i].AsInt()
}

// argLookup adapts an argument vector to the expression evaluator's
// identifier resolver.
func (f *FuncDesc) argLookup(args []marshal.Value) func(string) (int64, bool) {
	return func(name string) (int64, bool) {
		return f.argScalar(args, f.paramIndex(name))
	}
}

func (f *FuncDesc) paramIndex(name string) int {
	for i := range f.Params {
		if f.Params[i].Name == name {
			return i
		}
	}
	return -1
}

// Env builds the expression-evaluation environment from a call's scalar
// arguments; buffer sizes and resource estimates are expressions over these.
func (f *FuncDesc) Env(args []marshal.Value) spec.Env {
	env := make(spec.Env, len(args))
	for i, pd := range f.Params {
		if i >= len(args) || pd.IsPointer {
			continue
		}
		if n, ok := args[i].AsInt(); ok {
			env[pd.Name] = n
		}
	}
	return env
}

// BufferBytes computes the byte length of the buffer parameter at index i
// for the given environment.
func (f *FuncDesc) BufferBytes(i int, api *spec.API, env spec.Env) (int, error) {
	return f.bufferBytes(i, api, func(name string) (int64, bool) {
		v, ok := env[name]
		return v, ok
	})
}

// BufferBytesArgs is BufferBytes resolving identifiers directly from the
// argument vector (hot path; no environment map).
func (f *FuncDesc) BufferBytesArgs(i int, api *spec.API, args []marshal.Value) (int, error) {
	return f.bufferBytes(i, api, f.argLookup(args))
}

func (f *FuncDesc) bufferBytes(i int, api *spec.API, lookup func(string) (int64, bool)) (int, error) {
	pd := &f.Params[i]
	if !pd.IsBuffer {
		if pd.IsElement {
			return pd.ElemSize, nil
		}
		return 0, fmt.Errorf("cava: %s(%s) is not a buffer", f.Name, pd.Name)
	}
	n, err := spec.EvalExprWith(pd.SizeExpr, api, lookup)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("cava: %s(%s): negative element count %d", f.Name, pd.Name, n)
	}
	if pd.ElemSize > 0 && n > int64(math.MaxInt/pd.ElemSize) {
		return 0, fmt.Errorf("cava: %s(%s): %d elements of %d bytes overflow a buffer length", f.Name, pd.Name, n, pd.ElemSize)
	}
	return int(n) * pd.ElemSize, nil
}

// IsSync decides the forwarding mode for a concrete argument vector,
// implementing Figure 4's `if (blocking_read == CL_TRUE) sync; else async;`.
func (f *FuncDesc) IsSync(api *spec.API, args []marshal.Value) (bool, error) {
	switch f.Sync.Mode {
	case spec.SyncAlways:
		return true, nil
	case spec.AsyncAlways:
		return false, nil
	}
	got, ok := f.argScalar(args, f.CondParamIdx)
	if !ok {
		return true, fmt.Errorf("cava: %s: malformed sync condition", f.Name)
	}
	want, err := spec.EvalExprWith(f.Sync.CondValue, api, f.argLookup(args))
	if err != nil {
		return true, err
	}
	eq := got == want
	if f.Sync.Negate {
		return !eq, nil
	}
	return eq, nil
}

// Domain returns the call's ordering-domain key for an argument vector:
// the value of the first handle parameter, or 0 — the shared fallback
// domain — for handle-less functions and null handles.
func (f *FuncDesc) Domain(args []marshal.Value) uint64 {
	if f.DomainIdx < 0 || f.DomainIdx >= len(args) {
		return 0
	}
	if v := args[f.DomainIdx]; v.Kind() == marshal.KindHandle {
		return v.Uint()
	}
	return 0
}

// ResourceIndex returns the position of the named resource in f.Resources
// (and so in an EstimateResources result), or -1 if the function carries no
// annotation for it.
func (f *FuncDesc) ResourceIndex(name string) int {
	for i := range f.Resources {
		if f.Resources[i].Resource == name {
			return i
		}
	}
	return -1
}

// EstimateResources evaluates every resource annotation for a call into
// dst[:0] and returns it: element i is the estimate for f.Resources[i], so a
// caller that passes the previous result back in allocates nothing. A
// function without annotations yields an empty result. Unknown estimates
// evaluate to 0 rather than failing the call: scheduling uses
// approximations (§4.3), and a broken estimate must not break the API.
func (f *FuncDesc) EstimateResources(api *spec.API, args []marshal.Value, dst []int64) []int64 {
	dst = dst[:0]
	if len(f.Resources) == 0 {
		return dst
	}
	lookup := f.argLookup(args)
	for i := range f.Resources {
		var sum int64
		for _, amount := range f.Resources[i].Amounts {
			if v, err := spec.EvalExprWith(amount, api, lookup); err == nil {
				sum += v
			}
		}
		dst = append(dst, sum)
	}
	return dst
}
