// Quickstart: virtualize a brand-new accelerator API with AvA.
//
// This is the paper's end-to-end workflow (Figure 2) in one file:
//
//  1. Start from bare C-like declarations for a fictional "cryptodev"
//     accelerator and let CAvA infer a preliminary specification.
//  2. Refine it (here: one annotation CAvA cannot infer).
//  3. Compile the spec, implement the silo glue, and assemble the full
//     stack: guest library → hypervisor router → API server.
//  4. Call the virtualized API from a "VM".
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"ava"
	"ava/internal/marshal"
	"ava/internal/server"
)

// bareHeader is what a vendor ships: declarations, no semantics.
const bareHeader = `
api "cryptodev" version "0.9";

handle crypto_ctx;

const CRYPTO_OK = 0;

type crypto_status = int32_t { success(CRYPTO_OK); };

crypto_status cryptoOpen(uint32_t flags, crypto_ctx *ctx_out) {
  parameter(ctx_out) { out; element { allocates; } }
  track(create, ctx_out);
}

crypto_status cryptoSetKey(crypto_ctx ctx, const uint8_t *key, size_t key_size) {
  track(modify, ctx);
}

crypto_status cryptoEncrypt(crypto_ctx ctx, size_t size, const void *plain,
                            void *cipher) {
  parameter(cipher) { out; buffer(size); }
}

crypto_status cryptoClose(crypto_ctx ctx) {
  track(destroy, ctx);
}
`

func main() {
	// Step 1-2: CAvA infers what the declarations imply (const uint8_t*
	// key is an input buffer sized by key_size; plain needs review...) and
	// prints the preliminary spec a developer would refine.
	preliminary, notes, err := ava.InferSpec(bareHeader)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== CAvA inference notes ===")
	for _, n := range notes {
		fmt.Println(" ", n)
	}
	fmt.Println("\n=== preliminary specification ===")
	fmt.Println(preliminary)

	// Step 3: compile the (inferred) specification into a stack
	// descriptor. For this API the inference is already complete.
	desc, err := ava.CompileSpec(preliminary)
	if err != nil {
		log.Fatal(err)
	}

	// The silo glue: a toy XOR "accelerator". This is the only hand-
	// written per-API server code.
	type cryptoCtx struct{ key []byte }
	reg := server.NewRegistry(desc)
	reg.MustRegister("cryptoOpen", func(v *server.Invocation) error {
		h := v.Ctx.Handles.Insert(&cryptoCtx{})
		v.SetOutHandle(1, h)
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("cryptoSetKey", func(v *server.Invocation) error {
		obj, ok := v.Ctx.Handles.Get(v.Handle(0))
		if !ok {
			v.SetStatus(-1)
			return nil
		}
		obj.(*cryptoCtx).key = append([]byte(nil), v.Bytes(1)...)
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("cryptoEncrypt", func(v *server.Invocation) error {
		obj, ok := v.Ctx.Handles.Get(v.Handle(0))
		if !ok || len(obj.(*cryptoCtx).key) == 0 {
			v.SetStatus(-1)
			return nil
		}
		key := obj.(*cryptoCtx).key
		plain, cipher := v.Bytes(2), v.Bytes(3)
		for i := range plain {
			cipher[i] = plain[i] ^ key[i%len(key)]
		}
		v.SetStatus(0)
		return nil
	})
	reg.MustRegister("cryptoClose", func(v *server.Invocation) error {
		v.Ctx.Handles.Remove(v.Handle(0))
		v.SetStatus(0)
		return nil
	})

	// Step 4: assemble the stack and use the API from a guest VM.
	stack := ava.NewStack(desc, reg)
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "quickstart-vm"})
	if err != nil {
		log.Fatal(err)
	}

	var ctx marshal.Handle
	if _, err := lib.Call("cryptoOpen", uint32(0), &ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := lib.Call("cryptoSetKey", ctx, []byte("ava-secret"), uint64(10)); err != nil {
		log.Fatal(err)
	}
	plain := []byte("accelerators want to be virtualized")
	cipher := make([]byte, len(plain))
	if _, err := lib.Call("cryptoEncrypt", ctx, uint64(len(plain)), plain, cipher); err != nil {
		log.Fatal(err)
	}
	back := make([]byte, len(plain))
	if _, err := lib.Call("cryptoEncrypt", ctx, uint64(len(plain)), cipher, back); err != nil {
		log.Fatal(err)
	}
	if _, err := lib.Call("cryptoClose", ctx); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== remoted round trip ===")
	fmt.Printf("plain : %q\n", plain)
	fmt.Printf("cipher: %x\n", cipher[:16])
	fmt.Printf("back  : %q\n", back)
	st := lib.Stats()
	fmt.Printf("\nguest stats: %d calls (%d sync), %d bytes out, %d bytes in\n",
		st.Calls, st.SyncCalls, st.BytesSent, st.BytesRecv)
	if !bytes.Equal(back, plain) {
		log.Fatalf("round trip returned %q, want %q", back, plain)
	}
	fmt.Println("verified: encrypting twice through the remoted API gives back the plaintext")
}
