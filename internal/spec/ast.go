// Package spec implements the CAvA declarative API specification language.
//
// A specification embeds C-like function declarations and augments them with
// the annotations from the paper's Figure 4: synchrony (sync / async /
// conditional on an argument), parameter directions and buffer sizes,
// single-element output pointers whose element is freshly allocated, resource
// usage estimates for the hypervisor scheduler, and object-tracking
// annotations that drive record/replay migration. Two declarations carry what
// the generated API server needs beyond the call's shape:
//
//	handle cl_mem { type(*Mem); invalid(CL_INVALID_MEM_OBJECT); refcounted; }
//	handle cl_device_id { type(*Device); invalid(CL_INVALID_DEVICE); stable; }
//	type cl_int = int32_t { success(CL_SUCCESS); oom(CL_MEM_OBJECT_ALLOCATION_FAILURE); }
//
// type(*T) is the silo's Go type behind the handle (any when omitted);
// invalid(V) the status a call answers when an argument of this handle type
// names no live object of that type; stable says the silo hands out the same
// object on every query (platforms, devices), so it keeps one guest handle
// instead of a fresh one per appearance; refcounted says a destroy call drops
// one reference and the handle leaves the table only once the object reports
// Released(). oom(V) on a status type names the allocation-failure value the
// server turns into its out-of-memory sentinel (evict and retry, §4.3)
// wherever a value of that type comes back. The package provides the
// lexer, parser, semantic validation, the inference pass that produces a
// preliminary specification from bare declarations (the step CAvA performs
// on an unannotated header), an expression evaluator used at call time to
// compute buffer sizes and resource estimates, and a canonical printer.
package spec

import (
	"fmt"
	"sort"
)

// BaseKind enumerates the primitive kinds a type resolves to.
type BaseKind uint8

// Primitive kinds.
const (
	KindVoid BaseKind = iota
	KindBool
	KindInt    // signed integer of Size bytes
	KindUint   // unsigned integer of Size bytes
	KindFloat  // IEEE float of Size bytes
	KindHandle // opaque object handle
	KindString // NUL-terminated char* treated as a value
)

func (k BaseKind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindUint:
		return "uint"
	case KindFloat:
		return "float"
	case KindHandle:
		return "handle"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("base(%d)", uint8(k))
	}
}

// builtin describes a predeclared type.
type builtin struct {
	kind BaseKind
	size int
}

// builtins maps the predeclared type names of the spec language.
var builtins = map[string]builtin{
	"void":     {KindVoid, 0},
	"bool":     {KindBool, 1},
	"char":     {KindInt, 1},
	"int8_t":   {KindInt, 1},
	"int16_t":  {KindInt, 2},
	"int32_t":  {KindInt, 4},
	"int64_t":  {KindInt, 8},
	"int":      {KindInt, 4},
	"long":     {KindInt, 8},
	"uint8_t":  {KindUint, 1},
	"uint16_t": {KindUint, 2},
	"uint32_t": {KindUint, 4},
	"uint64_t": {KindUint, 8},
	"size_t":   {KindUint, 8},
	"float":    {KindFloat, 4},
	"double":   {KindFloat, 8},
	"string":   {KindString, 0},
}

// ResolvedType is the fully resolved meaning of a type name.
type ResolvedType struct {
	Name string
	Kind BaseKind
	Size int // element size in bytes; 1 for void buffers, 8 for handles
}

// TypeRef is a type as written at a use site.
type TypeRef struct {
	Name  string
	Stars int  // pointer depth
	Const bool // const-qualified pointee
}

func (t TypeRef) String() string {
	s := ""
	if t.Const {
		s = "const "
	}
	s += t.Name
	for i := 0; i < t.Stars; i++ {
		s += "*"
	}
	return s
}

// TypeDecl is `type name = base { success(V); oom(V); }`.
type TypeDecl struct {
	Name    string
	Base    string
	Success Expr // optional: value meaning success for this return type
	OOM     Expr // optional: value meaning the device could not allocate
	Pos     Pos
}

// HandleDecl is `handle name;` or `handle name { type(*T); invalid(V);
// stable; refcounted; }`, declaring an opaque object type and what the
// generated API server knows about the silo object behind it.
type HandleDecl struct {
	Name       string
	GoType     string // silo type, "*T"; "" = any
	Invalid    Expr   // optional: status answered for a dead or foreign handle
	Stable     bool   // one guest handle per object, however often it is returned
	Refcounted bool   // a destroy call removes the handle only once obj.Released()
	Pos        Pos
}

// ConstDecl is `const NAME = value;`.
type ConstDecl struct {
	Name  string
	Value int64
	Pos   Pos
}

// Direction of a parameter with respect to the forwarded call.
type Direction uint8

// Parameter directions.
const (
	DirDefault Direction = iota // scalar by-value, or unannotated pointer
	DirIn
	DirOut
	DirInOut
)

func (d Direction) String() string {
	switch d {
	case DirDefault:
		return "default"
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// Param is one function parameter plus its annotations.
type Param struct {
	Name string
	Type TypeRef
	Pos  Pos

	Dir         Direction
	IsBuffer    bool // pointer to SizeExpr elements
	SizeExpr    Expr // element count for buffers
	IsElement   bool // pointer to exactly one element
	Allocates   bool // element written by the call is a freshly allocated object
	Deallocates bool // the call releases the object passed here
	Inferred    bool // annotation produced by Infer, not the developer
}

// SyncMode describes how a call is forwarded.
type SyncMode uint8

// Forwarding modes.
const (
	SyncAlways SyncMode = iota
	AsyncAlways
	SyncConditional // sync iff CondParam == CondValue (or != if Negate)
)

// SyncSpec is the synchrony annotation for a function.
type SyncSpec struct {
	Mode      SyncMode
	CondParam string
	CondValue Expr
	Negate    bool
}

// ResourceAnn estimates consumption of a named resource (e.g. "bandwidth",
// "device_time") as an expression over the arguments; the router's scheduler
// consumes these (§4.3).
type ResourceAnn struct {
	Resource string
	Amount   Expr
	Pos      Pos
}

// TrackKind classifies a function for record/replay migration (§4.3).
type TrackKind uint8

// Tracking categories.
const (
	TrackNone    TrackKind = iota
	TrackConfig            // global configuration; always recorded
	TrackCreate            // allocates the object returned/output
	TrackDestroy           // releases the object in Param
	TrackModify            // mutates the object in Param; recorded
)

func (k TrackKind) String() string {
	switch k {
	case TrackNone:
		return "none"
	case TrackConfig:
		return "config"
	case TrackCreate:
		return "create"
	case TrackDestroy:
		return "destroy"
	case TrackModify:
		return "modify"
	default:
		return fmt.Sprintf("track(%d)", uint8(k))
	}
}

// TrackAnn is the migration-tracking annotation.
type TrackAnn struct {
	Kind  TrackKind
	Param string // object parameter for create/destroy/modify; "" = return value
	// Key, on a modify only, names a scalar in-parameter: a later call of
	// the same function on the same object with an equal key fully
	// overwrites what this call set, so the record log may drop this one
	// once both are checkpointed ("" = no key; every call is kept).
	Key string
}

// Func is one API function with its annotations.
type Func struct {
	Name      string
	Ret       TypeRef
	Params    []*Param
	Sync      SyncSpec
	Resources []ResourceAnn
	Track     TrackAnn
	Pos       Pos
}

// Param returns the named parameter, or nil.
func (f *Func) Param(name string) *Param {
	for _, p := range f.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ParamIndex returns the index of the named parameter, or -1.
func (f *Func) ParamIndex(name string) int {
	for i, p := range f.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// API is a parsed specification.
type API struct {
	Name    string
	Version string
	Types   map[string]*TypeDecl
	Handles map[string]*HandleDecl
	Consts  map[string]*ConstDecl
	Funcs   []*Func

	typeOrder   []string // declaration order, for the printer
	handleOrder []string
	constOrder  []string
}

// NewAPI returns an empty API with initialized tables.
func NewAPI(name string) *API {
	return &API{
		Name:    name,
		Types:   make(map[string]*TypeDecl),
		Handles: make(map[string]*HandleDecl),
		Consts:  make(map[string]*ConstDecl),
	}
}

// Func returns the named function, or nil.
func (a *API) Func(name string) *Func {
	for _, f := range a.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Const returns the value of a declared constant.
func (a *API) Const(name string) (int64, bool) {
	c, ok := a.Consts[name]
	if !ok {
		return 0, false
	}
	return c.Value, true
}

// ConstNames returns declared constant names, sorted.
func (a *API) ConstNames() []string {
	out := make([]string, 0, len(a.Consts))
	for n := range a.Consts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Handle returns the handle declaration typeName names, through aliases;
// nil for a type that is not a handle.
func (a *API) Handle(typeName string) *HandleDecl {
	for seen := map[string]bool{}; !seen[typeName]; {
		if hd := a.Handles[typeName]; hd != nil {
			return hd
		}
		td := a.Types[typeName]
		if td == nil {
			return nil
		}
		seen[typeName] = true
		typeName = td.Base
	}
	return nil
}

// HandleNames returns the handle declarations' names in declaration order.
func (a *API) HandleNames() []string { return append([]string(nil), a.handleOrder...) }

// Destructor returns the object fn releases — the by-value handle parameter
// its track(destroy) names or that is marked deallocates, and that handle's
// declaration — or nils when fn releases none. The validator holds each
// handle type to one destructor that takes the object alone, which is how
// the generated server gives back what a dead incarnation held.
func (a *API) Destructor(fn *Func) (*Param, *HandleDecl) {
	for _, prm := range fn.Params {
		if prm.Type.Stars > 0 || !(prm.Deallocates || fn.Track.Kind == TrackDestroy && fn.Track.Param == prm.Name) {
			continue
		}
		if hd := a.Handle(prm.Type.Name); hd != nil {
			return prm, hd
		}
	}
	return nil, nil
}

// Resolve resolves a type name through alias chains to its primitive
// meaning. Handle types resolve to KindHandle with size 8.
func (a *API) Resolve(name string) (ResolvedType, error) {
	seen := map[string]bool{}
	cur := name
	for {
		if b, ok := builtins[cur]; ok {
			return ResolvedType{Name: name, Kind: b.kind, Size: b.size}, nil
		}
		if _, ok := a.Handles[cur]; ok {
			return ResolvedType{Name: name, Kind: KindHandle, Size: 8}, nil
		}
		td, ok := a.Types[cur]
		if !ok {
			return ResolvedType{}, fmt.Errorf("spec: unknown type %q", cur)
		}
		if seen[cur] {
			return ResolvedType{}, fmt.Errorf("spec: type alias cycle at %q", cur)
		}
		seen[cur] = true
		cur = td.Base
	}
}

// ElemSize returns the in-memory element size for a pointer to the named
// type; void pointees have element size 1 (byte buffers).
func (a *API) ElemSize(name string) (int, error) {
	rt, err := a.Resolve(name)
	if err != nil {
		return 0, err
	}
	if rt.Kind == KindVoid {
		return 1, nil
	}
	if rt.Size <= 0 {
		return 0, fmt.Errorf("spec: type %q has no element size", name)
	}
	return rt.Size, nil
}

// SuccessValue returns the declared success value for the function's return
// type, if any. Asynchronously forwarded calls report this value
// immediately (§4.2: "the return value from asynchronous calls returning the
// type cl_int is CL_SUCCESS").
func (a *API) SuccessValue(f *Func) (int64, bool) {
	td, ok := a.Types[f.Ret.Name]
	if !ok || td.Success == nil {
		return 0, false
	}
	v, err := EvalExpr(td.Success, a, nil)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Expr is a size/resource expression over parameters and constants.
type Expr interface {
	exprNode()
	String() string
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// Ref names a parameter or declared constant.
type Ref struct{ Name string }

// Sizeof is sizeof(typename).
type Sizeof struct{ TypeName string }

// Binary is a binary arithmetic expression.
type Binary struct {
	Op   byte // '*', '/', '+', '-'
	L, R Expr
}

func (*IntLit) exprNode() {}
func (*Ref) exprNode()    {}
func (*Sizeof) exprNode() {}
func (*Binary) exprNode() {}

func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Value) }
func (e *Ref) String() string    { return e.Name }
func (e *Sizeof) String() string { return fmt.Sprintf("sizeof(%s)", e.TypeName) }
func (e *Binary) String() string {
	return fmt.Sprintf("(%s %c %s)", e.L.String(), e.Op, e.R.String())
}

// Env supplies parameter values for expression evaluation at call time.
type Env map[string]int64

// EvalExpr evaluates e. Identifier resolution order: call-time parameter
// environment, then declared constants.
func EvalExpr(e Expr, api *API, env Env) (int64, error) {
	if env == nil {
		return EvalExprWith(e, api, nil)
	}
	return EvalExprWith(e, api, func(name string) (int64, bool) {
		v, ok := env[name]
		return v, ok
	})
}

// EvalExprWith evaluates e resolving identifiers through lookup (then
// declared constants). The callback form lets hot paths avoid building an
// environment map per call.
func EvalExprWith(e Expr, api *API, lookup func(string) (int64, bool)) (int64, error) {
	switch n := e.(type) {
	case *IntLit:
		return n.Value, nil
	case *Ref:
		if lookup != nil {
			if v, ok := lookup(n.Name); ok {
				return v, nil
			}
		}
		if api != nil {
			if v, ok := api.Const(n.Name); ok {
				return v, nil
			}
		}
		return 0, fmt.Errorf("spec: unresolved identifier %q in expression", n.Name)
	case *Sizeof:
		if api == nil {
			return 0, fmt.Errorf("spec: sizeof(%s) requires an API context", n.TypeName)
		}
		sz, err := api.ElemSize(n.TypeName)
		if err != nil {
			return 0, err
		}
		return int64(sz), nil
	case *Binary:
		l, err := EvalExprWith(n.L, api, lookup)
		if err != nil {
			return 0, err
		}
		r, err := EvalExprWith(n.R, api, lookup)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case '*':
			return l * r, nil
		case '/':
			if r == 0 {
				return 0, fmt.Errorf("spec: division by zero in expression")
			}
			return l / r, nil
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		}
		return 0, fmt.Errorf("spec: unknown operator %q", string(n.Op))
	}
	return 0, fmt.Errorf("spec: unknown expression node %T", e)
}

// exprRefs collects parameter/constant names referenced by e.
func exprRefs(e Expr, out map[string]bool) {
	switch n := e.(type) {
	case *Ref:
		out[n.Name] = true
	case *Binary:
		exprRefs(n.L, out)
		exprRefs(n.R, out)
	}
}
