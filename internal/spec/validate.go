package spec

import (
	"errors"
	"fmt"
	"strings"
)

// Validate checks the semantic consistency of a parsed specification:
// every type resolves, buffer annotations sit on pointer parameters, size
// and resource expressions reference only parameters and constants, sync
// conditions name scalar parameters, and track annotations name real
// object parameters. All problems are reported at once.
func Validate(api *API) error {
	var errs []string
	report := func(pos Pos, format string, args ...any) {
		errs = append(errs, errf(pos, format, args...).Error())
	}

	// checkValue checks an optional declaration-level value (no parameters
	// in scope).
	checkValue := func(pos Pos, what string, e Expr) {
		if e == nil {
			return
		}
		if err := checkExpr(api, nil, e); err != nil {
			report(pos, "%s: %v", what, err)
		}
	}

	for _, name := range api.typeOrder {
		td := api.Types[name]
		if _, err := api.Resolve(name); err != nil {
			report(td.Pos, "type %s: %v", name, err)
		}
		checkValue(td.Pos, "type "+name+" success value", td.Success)
		checkValue(td.Pos, "type "+name+" oom value", td.OOM)
	}
	for _, name := range api.handleOrder {
		hd := api.Handles[name]
		checkValue(hd.Pos, "handle "+name+" invalid status", hd.Invalid)
	}

	for _, fn := range api.Funcs {
		validateFunc(api, fn, report)
	}
	validateDestructors(api, report)

	if len(errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(errs, "\n"))
}

func validateFunc(api *API, fn *Func, report func(Pos, string, ...any)) {
	if _, err := api.Resolve(fn.Ret.Name); err != nil {
		report(fn.Pos, "%s: return type: %v", fn.Name, err)
	}
	if fn.Ret.Stars > 0 && fn.Ret.Name != "char" {
		rt, err := api.Resolve(fn.Ret.Name)
		if err == nil && rt.Kind != KindHandle && rt.Kind != KindVoid {
			report(fn.Pos, "%s: pointer return types other than handles are not remotable", fn.Name)
		}
	}

	seen := map[string]bool{}
	for _, prm := range fn.Params {
		if seen[prm.Name] {
			report(prm.Pos, "%s: duplicate parameter %q", fn.Name, prm.Name)
		}
		seen[prm.Name] = true
		validateParam(api, fn, prm, report)
	}

	switch fn.Sync.Mode {
	case SyncConditional:
		cp := fn.Param(fn.Sync.CondParam)
		if cp == nil {
			report(fn.Pos, "%s: sync condition references unknown parameter %q", fn.Name, fn.Sync.CondParam)
		} else if cp.Type.Stars > 0 {
			report(cp.Pos, "%s: sync condition parameter %q must be scalar", fn.Name, cp.Name)
		}
		if err := checkExpr(api, fn, fn.Sync.CondValue); err != nil {
			report(fn.Pos, "%s: sync condition: %v", fn.Name, err)
		}
	case AsyncAlways:
		// An always-async call must not have synchronous outputs the caller
		// can observe: output buffers are permitted only when the spec also
		// declares a success value (errors are deferred, §4.2), and the
		// call must not return data other than a status code.
		if _, ok := api.SuccessValue(fn); !ok {
			rt, err := api.Resolve(fn.Ret.Name)
			if err == nil && rt.Kind != KindVoid {
				report(fn.Pos, "%s: async function's return type %s declares no success value", fn.Name, fn.Ret.Name)
			}
		}
	}

	for _, res := range fn.Resources {
		if err := checkExpr(api, fn, res.Amount); err != nil {
			report(res.Pos, "%s: resource(%s): %v", fn.Name, res.Resource, err)
		}
	}

	switch fn.Track.Kind {
	case TrackCreate:
		if fn.Track.Param != "" {
			prm := fn.Param(fn.Track.Param)
			if prm == nil {
				report(fn.Pos, "%s: track(create, %s): no such parameter", fn.Name, fn.Track.Param)
			} else if !isHandleParam(api, prm) {
				report(prm.Pos, "%s: track(create, %s): parameter is not an object handle", fn.Name, fn.Track.Param)
			}
		} else {
			rt, err := api.Resolve(fn.Ret.Name)
			if err != nil || rt.Kind != KindHandle {
				report(fn.Pos, "%s: track(create) without a parameter requires a handle return type", fn.Name)
			}
		}
	case TrackDestroy, TrackModify:
		if fn.Track.Param == "" {
			report(fn.Pos, "%s: track(%s) requires an object parameter", fn.Name, fn.Track.Kind)
		} else if fn.Param(fn.Track.Param) == nil {
			report(fn.Pos, "%s: track(%s, %s): no such parameter", fn.Name, fn.Track.Kind, fn.Track.Param)
		}
	}
	if fn.Track.Key != "" {
		validateTrackKey(api, fn, report)
	}
}

// validateDestructors checks what the generated server's release of a dead
// incarnation's objects needs of the destructors (API.Destructor): a type
// switch with one case per handle type, each calling that type's destructor
// with the object alone. So a handle type — a type(*T), or the untyped
// objects, which all arrive as any and share the switch's default case —
// has at most one destructor, and a destructor takes no other parameter.
func validateDestructors(api *API, report func(Pos, string, ...any)) {
	type owner struct {
		fn *Func
		hd *HandleDecl
	}
	byType := map[string]owner{}
	for _, fn := range api.Funcs {
		prm, hd := api.Destructor(fn)
		if hd == nil {
			continue
		}
		if len(fn.Params) != 1 {
			report(fn.Pos, "%s: destructor of handle %s takes other parameters than %s (the object alone is what a release holds)", fn.Name, hd.Name, prm.Name)
		}
		prev, dup := byType[hd.GoType]
		switch {
		case !dup:
			byType[hd.GoType] = owner{fn, hd}
		case prev.hd == hd:
			report(fn.Pos, "%s: second destructor of handle %s (%s is the first)", fn.Name, hd.Name, prev.fn.Name)
		case hd.GoType == "":
			report(fn.Pos, "%s: destructor of untyped handle %s, but untyped handle %s already has one (%s): give all but one a type(*T)", fn.Name, hd.Name, prev.hd.Name, prev.fn.Name)
		default:
			report(fn.Pos, "%s: second destructor of type(%s) (%s destroys handle %s of the same type)", fn.Name, hd.GoType, prev.fn.Name, prev.hd.Name)
		}
	}
}

// validateTrackKey checks track(modify, obj, key): the key is a by-value
// integer in-parameter other than the object, so equal keys can be told
// apart from the recorded arguments alone.
func validateTrackKey(api *API, fn *Func, report func(Pos, string, ...any)) {
	ta := fn.Track
	ann := fmt.Sprintf("%s: track(%s, %s, %s)", fn.Name, ta.Kind, ta.Param, ta.Key)
	if ta.Kind != TrackModify {
		report(fn.Pos, "%s: only a modify takes a key", ann)
		return
	}
	prm := fn.Param(ta.Key)
	switch {
	case prm == nil:
		report(fn.Pos, "%s: no such key parameter", ann)
	case ta.Key == ta.Param:
		report(prm.Pos, "%s: the key is the object itself", ann)
	case prm.Type.Stars > 0:
		report(prm.Pos, "%s: key %s is a pointer, want a scalar passed by value", ann, ta.Key)
	case prm.Dir == DirOut || prm.Dir == DirInOut:
		report(prm.Pos, "%s: key %s is an output, want an in-parameter", ann, ta.Key)
	default:
		rt, err := api.Resolve(prm.Type.Name)
		if err == nil && rt.Kind != KindInt && rt.Kind != KindUint {
			report(prm.Pos, "%s: key %s is %s, want an integer scalar", ann, ta.Key, rt.Kind)
		}
	}
}

func isHandleParam(api *API, prm *Param) bool {
	rt, err := api.Resolve(prm.Type.Name)
	return err == nil && rt.Kind == KindHandle
}

func validateParam(api *API, fn *Func, prm *Param, report func(Pos, string, ...any)) {
	rt, err := api.Resolve(prm.Type.Name)
	if err != nil {
		report(prm.Pos, "%s(%s): %v", fn.Name, prm.Name, err)
		return
	}
	if prm.Type.Stars > 1 {
		report(prm.Pos, "%s(%s): pointer depth %d is not supported (flatten the API)", fn.Name, prm.Name, prm.Type.Stars)
	}
	if prm.Type.Stars == 0 {
		if rt.Kind == KindVoid {
			report(prm.Pos, "%s(%s): void is not a value type", fn.Name, prm.Name)
		}
		if prm.IsBuffer || prm.IsElement {
			report(prm.Pos, "%s(%s): buffer/element annotation on a scalar parameter", fn.Name, prm.Name)
		}
		if prm.Dir == DirOut || prm.Dir == DirInOut {
			report(prm.Pos, "%s(%s): out annotation on a by-value parameter", fn.Name, prm.Name)
		}
		return
	}

	// Pointer parameter.
	if prm.IsBuffer && prm.IsElement {
		report(prm.Pos, "%s(%s): both buffer and element", fn.Name, prm.Name)
	}
	if prm.IsBuffer && prm.SizeExpr == nil {
		report(prm.Pos, "%s(%s): buffer annotation requires a size expression", fn.Name, prm.Name)
	}
	if prm.SizeExpr != nil {
		if err := checkExpr(api, fn, prm.SizeExpr); err != nil {
			report(prm.Pos, "%s(%s): buffer size: %v", fn.Name, prm.Name, err)
		}
	}
	if prm.Allocates {
		if rt.Kind != KindHandle {
			report(prm.Pos, "%s(%s): allocates requires a handle element type", fn.Name, prm.Name)
		}
		if prm.Dir != DirOut && prm.Dir != DirInOut {
			report(prm.Pos, "%s(%s): allocates requires an out direction", fn.Name, prm.Name)
		}
	}
	if prm.Type.Const && (prm.Dir == DirOut || prm.Dir == DirInOut) {
		report(prm.Pos, "%s(%s): const pointer cannot be an output", fn.Name, prm.Name)
	}
	isCharString := prm.Type.Name == "char" && prm.Type.Const && prm.Type.Stars == 1
	if !prm.IsBuffer && !prm.IsElement && rt.Kind != KindString && !isCharString {
		report(prm.Pos, "%s(%s): pointer parameter needs a buffer(...) or element annotation", fn.Name, prm.Name)
	}
}

// checkExpr verifies that e references only fn's scalar parameters and the
// API's constants (fn may be nil for type-level expressions).
func checkExpr(api *API, fn *Func, e Expr) error {
	refs := map[string]bool{}
	exprRefs(e, refs)
	for name := range refs {
		if fn != nil {
			if prm := fn.Param(name); prm != nil {
				if prm.Type.Stars > 0 {
					return fmt.Errorf("expression references pointer parameter %q", name)
				}
				continue
			}
		}
		if _, ok := api.Const(name); ok {
			continue
		}
		return fmt.Errorf("expression references unknown identifier %q", name)
	}
	// Sizeof operands must resolve.
	return checkSizeofs(api, e)
}

func checkSizeofs(api *API, e Expr) error {
	switch n := e.(type) {
	case *Sizeof:
		if _, err := api.ElemSize(n.TypeName); err != nil {
			return err
		}
	case *Binary:
		if err := checkSizeofs(api, n.L); err != nil {
			return err
		}
		return checkSizeofs(api, n.R)
	}
	return nil
}
