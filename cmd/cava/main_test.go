package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const bareSpec = `
handle dev;
const OK = 0;
type st = int32_t { success(OK); };
st devWrite(dev d, const uint8_t *data, size_t data_size);
`

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "api.ava")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRequiresSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("no error without -spec")
	}
}

func TestRunEmitSpecWithInference(t *testing.T) {
	path := writeSpec(t, bareSpec)
	var out, errb bytes.Buffer
	if err := run([]string{"-spec", path, "-infer", "-emit-spec"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	if !strings.Contains(out.String(), "buffer(data_size)") {
		t.Fatalf("inference missing from emitted spec:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "inferred") {
		t.Fatalf("no inference notes on stderr: %s", errb.String())
	}
}

func TestRunRejectsUnannotatedWithoutInfer(t *testing.T) {
	path := writeSpec(t, bareSpec)
	var out, errb bytes.Buffer
	err := run([]string{"-spec", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "does not validate") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunGeneratesToFile(t *testing.T) {
	path := writeSpec(t, bareSpec)
	outPath := filepath.Join(t.TempDir(), "gen.go")
	var out, errb bytes.Buffer
	if err := run([]string{"-spec", path, "-infer", "-pkg", "devapi", "-o", outPath, "-stats"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	code, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package devapi", "func (c *Stubs) DevWrite(", "Implementation interface"} {
		if !strings.Contains(string(code), want) {
			t.Fatalf("generated code missing %q", want)
		}
	}
	if !strings.Contains(errb.String(), "generated lines") {
		t.Fatalf("stats missing: %s", errb.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-spec", "/no/such/file.ava"}, &out, &errb); err == nil {
		t.Fatal("missing file accepted")
	}
}
