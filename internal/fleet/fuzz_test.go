package fleet

import (
	"encoding/json"
	"errors"
	"testing"

	"ava/internal/transport"
)

// FuzzServeConn feeds one arbitrary frame to a registry connection — the
// first bytes avaregd reads from the network. Whatever it is, the registry
// must not panic. A frame that is not a control frame (the retired JSON
// requests included) ends the connection unanswered; a control frame gets
// exactly one answer — the op's reply when it is a registry request whose
// body parses, a refusal otherwise — and the connection keeps serving: a
// well-formed query right behind it succeeds. The checked-in corpus
// (testdata/fuzz) covers every op, malformed JSON, wrongly typed bodies,
// ops that are not registry requests and an oversized gossip table.
func FuzzServeConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		client, served := transport.NewInProc()
		defer client.Close()
		go ServeConn(served, NewRegistry(0, nil))

		req, err := transport.DecodeCtl(frame)
		if err != nil {
			client.Send(frame)
			if out, err := client.Recv(); err == nil {
				t.Fatalf("%q is not a control frame, yet it was answered with %q", frame, out)
			}
			return
		}
		want := transport.OpAck
		if req.Op == transport.OpFleetLive {
			want = transport.OpFleetMembers
		}
		wellFormed := req.Op >= transport.OpFleetAnnounce && req.Op <= transport.OpFleetLive &&
			json.Unmarshal(req.Payload, new(wireBody)) == nil
		_, err = transport.RoundTrip(client, req, want)
		if wellFormed != (err == nil) || (err != nil && !errors.Is(err, transport.ErrRefused)) {
			t.Fatalf("request %q (well-formed %v) got %v", frame, wellFormed, err)
		}
		live := transport.Ctl{Op: transport.OpFleetLive, Payload: []byte(`{"api":"opencl"}`)}
		if _, err := transport.RoundTrip(client, live, transport.OpFleetMembers); err != nil {
			t.Fatalf("connection stopped serving after %q: %v", frame, err)
		}
	})
}
