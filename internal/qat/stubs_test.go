package qat_test

import (
	"bytes"
	"os"
	"testing"

	"ava/internal/cava"
	"ava/internal/qat"
)

// TestGeneratedStubsAreCurrent is the golden test for stubs_gen.go: the
// committed file must equal, byte for byte, what cava generates from the
// committed specification (`make gen` regenerates it).
func TestGeneratedStubsAreCurrent(t *testing.T) {
	fresh, st, err := cava.Generate(qat.Descriptor(), qat.Spec, cava.GenOptions{Package: "qat"})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("stubs_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, committed) {
		t.Fatal("stubs_gen.go is stale; regenerate with `make gen`")
	}
	if st.Functions != len(qat.Descriptor().Funcs) || st.GeneratedLines <= st.SpecLines {
		t.Fatalf("stats = %+v", st)
	}
}
