package fleet

import (
	"encoding/json"
	"testing"

	"ava/internal/transport"
)

// FuzzServeConn feeds one arbitrary frame to a registry connection — the
// first bytes avaregd reads from the network. Whatever it is, the registry
// must not panic, must answer with exactly one verdict (ok, or an error
// for anything it could not parse or does not implement), and must keep
// serving the connection: a well-formed query right behind it succeeds.
// The checked-in corpus (testdata/fuzz) covers every op, malformed JSON,
// wrongly typed fields, an unknown op and an oversized gossip table.
func FuzzServeConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		client, served := transport.NewInProc()
		defer client.Close()
		go ServeConn(served, NewRegistry(0, nil))

		roundTrip := func(req []byte) wireResp {
			t.Helper()
			if err := client.Send(req); err != nil {
				t.Fatal(err)
			}
			out, err := client.Recv()
			if err != nil {
				t.Fatalf("no response to %q: %v", req, err)
			}
			var resp wireResp
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("response %q is not a verdict: %v", out, err)
			}
			return resp
		}

		var req wireReq
		known := json.Unmarshal(frame, &req) == nil
		switch req.Op {
		case "announce", "deregister", "live", "gossip":
		default:
			known = false
		}
		if resp := roundTrip(frame); resp.OK != known || (resp.Err == "") != known {
			t.Fatalf("request %q (well-formed %v) got %+v", frame, known, resp)
		}
		if resp := roundTrip([]byte(`{"op":"live","api":"opencl"}`)); !resp.OK {
			t.Fatalf("connection stopped serving after %q: %+v", frame, resp)
		}
	})
}
