// Command cava is the AvA stack generator (Figure 2 of the paper).
//
// Given an annotated API specification, it generates the API-specific
// components of the remoting stack as a Go source file: the typed guest
// library and the API server over a typed silo interface. With -infer it first
// runs the inference pass over bare declarations and (with -emit-spec)
// writes back the preliminary specification for the developer to refine.
//
// Usage:
//
//	cava -spec api.ava -pkg myapi -o gen.go        # generate the stack
//	cava -spec api.ava -infer -emit-spec           # preliminary spec
//	cava -spec api.ava -stats                      # developer-effort stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ava/internal/cava"
	"ava/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cava:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cava", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "path to the CAvA API specification (required)")
		pkg      = fs.String("pkg", "", "package name for generated code (default: API name)")
		out      = fs.String("o", "", "output file (default: stdout)")
		infer    = fs.Bool("infer", false, "run the inference pass over bare declarations first")
		emitSpec = fs.Bool("emit-spec", false, "print the canonical (optionally inferred) specification instead of code")
		stats    = fs.Bool("stats", false, "print developer-effort statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		fs.Usage()
		return fmt.Errorf("-spec is required")
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}

	api, err := spec.ParseNoValidate(string(src))
	if err != nil {
		return err
	}
	if *infer {
		for _, note := range spec.Infer(api) {
			fmt.Fprintln(stderr, "cava:", note)
		}
	}
	if err := spec.Validate(api); err != nil {
		return fmt.Errorf("specification does not validate (refine it, or run with -infer):\n%w", err)
	}

	if *emitSpec {
		return emit(*out, []byte(spec.Print(api)), stdout)
	}

	desc, err := cava.Compile(api)
	if err != nil {
		return err
	}
	code, st, err := cava.Generate(desc, string(src), cava.GenOptions{Package: *pkg})
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(stderr, "cava: api %q: %d functions, %d spec lines -> %d generated lines (%.1fx)\n",
			st.API, st.Functions, st.SpecLines, st.GeneratedLines,
			float64(st.GeneratedLines)/float64(max(st.SpecLines, 1)))
	}
	return emit(*out, code, stdout)
}

func emit(path string, data []byte, stdout io.Writer) error {
	if path == "" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
