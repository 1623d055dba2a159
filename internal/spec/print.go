package spec

import (
	"fmt"
	"strings"
)

// Print emits a canonical textual form of the specification. Parsing the
// output yields an equivalent API (round-trip property), which lets CAvA
// write back the preliminary specification for the developer to refine
// (Figure 2's workflow).
func Print(api *API) string {
	var b strings.Builder
	if api.Name != "" {
		fmt.Fprintf(&b, "api %q", api.Name)
		if api.Version != "" {
			fmt.Fprintf(&b, " version %q", api.Version)
		}
		b.WriteString(";\n\n")
	}
	for _, name := range api.handleOrder {
		hd := api.Handles[name]
		var anns []string
		if hd.GoType != "" {
			anns = append(anns, fmt.Sprintf("type(%s);", hd.GoType))
		}
		if hd.Invalid != nil {
			anns = append(anns, fmt.Sprintf("invalid(%s);", printExpr(hd.Invalid)))
		}
		if hd.Stable {
			anns = append(anns, "stable;")
		}
		if hd.Refcounted {
			anns = append(anns, "refcounted;")
		}
		if len(anns) == 0 {
			fmt.Fprintf(&b, "handle %s;\n", name)
		} else {
			fmt.Fprintf(&b, "handle %s { %s }\n", name, strings.Join(anns, " "))
		}
	}
	if len(api.handleOrder) > 0 {
		b.WriteByte('\n')
	}
	for _, name := range api.constOrder {
		fmt.Fprintf(&b, "const %s = %d;\n", name, api.Consts[name].Value)
	}
	if len(api.constOrder) > 0 {
		b.WriteByte('\n')
	}
	for _, name := range api.typeOrder {
		td := api.Types[name]
		fmt.Fprintf(&b, "type %s = %s", td.Name, td.Base)
		if td.Success != nil || td.OOM != nil {
			b.WriteString(" {")
			if td.Success != nil {
				fmt.Fprintf(&b, " success(%s);", printExpr(td.Success))
			}
			if td.OOM != nil {
				fmt.Fprintf(&b, " oom(%s);", printExpr(td.OOM))
			}
			b.WriteString(" }")
		}
		b.WriteString(";\n")
	}
	if len(api.typeOrder) > 0 {
		b.WriteByte('\n')
	}
	for i, fn := range api.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		printFunc(&b, fn)
	}
	return b.String()
}

func printFunc(b *strings.Builder, fn *Func) {
	fmt.Fprintf(b, "%s %s(", fn.Ret, fn.Name)
	for i, prm := range fn.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", prm.Type, prm.Name)
	}
	b.WriteString(")")

	var stmts []string
	switch fn.Sync.Mode {
	case SyncAlways:
		stmts = append(stmts, "sync;")
	case AsyncAlways:
		stmts = append(stmts, "async;")
	case SyncConditional:
		op := "=="
		if fn.Sync.Negate {
			op = "!="
		}
		stmts = append(stmts, fmt.Sprintf("if (%s %s %s) sync; else async;",
			fn.Sync.CondParam, op, printExpr(fn.Sync.CondValue)))
	}
	for _, prm := range fn.Params {
		if s := printParamAnn(prm); s != "" {
			stmts = append(stmts, s)
		}
	}
	for _, res := range fn.Resources {
		stmts = append(stmts, fmt.Sprintf("resource(%s, %s);", res.Resource, printExpr(res.Amount)))
	}
	if fn.Track.Kind != TrackNone {
		switch {
		case fn.Track.Key != "":
			stmts = append(stmts, fmt.Sprintf("track(%s, %s, %s);", fn.Track.Kind, fn.Track.Param, fn.Track.Key))
		case fn.Track.Param != "":
			stmts = append(stmts, fmt.Sprintf("track(%s, %s);", fn.Track.Kind, fn.Track.Param))
		default:
			stmts = append(stmts, fmt.Sprintf("track(%s);", fn.Track.Kind))
		}
	}

	// SyncAlways with no other annotations is the default; emit a bare
	// declaration ("Simple functions do not need any function-specific
	// annotations", §4.2).
	if len(stmts) == 1 && fn.Sync.Mode == SyncAlways && stmts[0] == "sync;" {
		b.WriteString(";\n")
		return
	}
	b.WriteString(" {\n")
	for _, s := range stmts {
		fmt.Fprintf(b, "    %s\n", s)
	}
	b.WriteString("}\n")
}

func printParamAnn(prm *Param) string {
	var items []string
	switch prm.Dir {
	case DirIn:
		items = append(items, "in;")
	case DirOut:
		items = append(items, "out;")
	case DirInOut:
		items = append(items, "inout;")
	}
	if prm.IsBuffer {
		items = append(items, fmt.Sprintf("buffer(%s);", printExpr(prm.SizeExpr)))
	}
	if prm.IsElement {
		if prm.Allocates {
			items = append(items, "element { allocates; }")
		} else {
			items = append(items, "element;")
		}
	} else if prm.Allocates {
		items = append(items, "allocates;")
	}
	if prm.Deallocates {
		items = append(items, "deallocates;")
	}
	if len(items) == 0 {
		return ""
	}
	return fmt.Sprintf("parameter(%s) { %s }", prm.Name, strings.Join(items, " "))
}

// printExpr emits an expression with explicit parentheses around binary
// subexpressions so precedence survives the round trip.
func printExpr(e Expr) string {
	switch n := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", n.Value)
	case *Ref:
		return n.Name
	case *Sizeof:
		return fmt.Sprintf("sizeof(%s)", n.TypeName)
	case *Binary:
		return fmt.Sprintf("(%s %c %s)", printExpr(n.L), n.Op, printExpr(n.R))
	default:
		return "<?>"
	}
}
