package failover

import (
	"encoding/binary"
	"fmt"

	"ava/internal/marshal"
	"ava/internal/server"
)

// Mirror wire protocol: the payload layer of transport's AVAM frames. A
// RemoteMirror streams its guardian's shadow-log mutations to a mirror
// host as batches of sub-ops; the mirror host applies them to a per-VM
// MemoryMirror and acks each batch by opseq, giving the sender a
// replication watermark. A replacement guardian on any machine fetches the
// accumulated MirrorState back over the same connection kind.
//
// The sub-op payloads reuse the marshal call/reply codecs — an append IS
// the recorded call, a reply IS the recorded reply — so the mirror stream
// inherits the data plane's wire discipline instead of inventing a second
// serialization.

// Frame-level mirror ops (the op byte of transport.EncodeMirrorFrame).
const (
	// MirrorOpHello opens a session: payload = VM name. Acked.
	MirrorOpHello byte = 1
	// MirrorOpBatch carries sub-ops: payload = marshal.EncodeBatch of
	// sub-frames. Acked with ok=false if any sub-op failed to apply.
	MirrorOpBatch byte = 2
	// MirrorOpState requests the VM's accumulated state; answered with
	// MirrorOpStateResp instead of an ack.
	MirrorOpState byte = 3
	// MirrorOpAck is the server's per-frame verdict: opseq echoes the
	// acked frame, payload = [ok u8].
	MirrorOpAck byte = 4
	// MirrorOpStateResp answers MirrorOpState: payload = EncodeMirrorState.
	MirrorOpStateResp byte = 5
)

// Batch sub-ops: each sub-frame is [subop u8][payload].
const (
	mirrorSubAppend     byte = 1 // [created u64] + EncodeCall(Seq, Func, Args)
	mirrorSubReply      byte = 2 // [created u64] + EncodeReply(Seq, Ret, Outs)
	mirrorSubDrop       byte = 3 // [seq u64]
	mirrorSubPrune      byte = 4 // [handle u64]
	mirrorSubCheckpoint byte = 5 // [epoch u32][w u64] + EncodeObjectStates
	mirrorSubDelta      byte = 6 // [epoch u32][w u64] + EncodeObjectDeltas
	mirrorSubEpoch      byte = 7 // [epoch u32][w u64]
	mirrorSubReset      byte = 8 // empty: discard the VM's state (resync follows)
)

func subAppend(rc *server.RecordedCall) []byte {
	// Created rides along even though the guardian normally learns it from
	// the reply: the remote mirror must converge to the staging mirror
	// byte-for-byte, whatever the sink was fed.
	body := marshal.EncodeCall(&marshal.Call{Seq: rc.Seq, Func: rc.Func, Args: rc.Args})
	out := make([]byte, 9, 9+len(body))
	out[0] = mirrorSubAppend
	binary.LittleEndian.PutUint64(out[1:], uint64(rc.Created))
	return append(out, body...)
}

func subReply(rc *server.RecordedCall) []byte {
	body := marshal.EncodeReply(&marshal.Reply{Seq: rc.Seq, Status: marshal.StatusOK, Ret: rc.Ret, Outs: rc.Outs})
	out := make([]byte, 9, 9+len(body))
	out[0] = mirrorSubReply
	binary.LittleEndian.PutUint64(out[1:], uint64(rc.Created))
	return append(out, body...)
}

func subSeq(op byte, v uint64) []byte {
	var out [9]byte
	out[0] = op
	binary.LittleEndian.PutUint64(out[1:], v)
	return out[:]
}

func subMark(op byte, epoch uint32, w uint64, body []byte) []byte {
	out := make([]byte, 13, 13+len(body))
	out[0] = op
	binary.LittleEndian.PutUint32(out[1:], epoch)
	binary.LittleEndian.PutUint64(out[5:], w)
	return append(out, body...)
}

func splitMark(p []byte) (epoch uint32, w uint64, rest []byte, err error) {
	if len(p) < 12 {
		return 0, 0, nil, fmt.Errorf("failover: mirror mark truncated: %d bytes", len(p))
	}
	return binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint64(p[4:]), p[12:], nil
}

// applyMirrorSub applies one decoded sub-frame to m. composed=false means
// a delta sub-op could not compose (the sender must resync with full
// state); err means the frame itself is malformed.
func applyMirrorSub(m *MemoryMirror, sub []byte) (composed bool, err error) {
	if len(sub) < 1 {
		return true, fmt.Errorf("failover: empty mirror sub-op")
	}
	op, p := sub[0], sub[1:]
	switch op {
	case mirrorSubAppend:
		if len(p) < 8 {
			return true, fmt.Errorf("failover: mirror append truncated")
		}
		created := marshal.Handle(binary.LittleEndian.Uint64(p))
		var c marshal.Call
		if err := marshal.DecodeCallInto(&c, p[8:]); err != nil {
			return true, err
		}
		m.MirrorAppend(&server.RecordedCall{Func: c.Func, Args: c.Args, Seq: c.Seq, Created: created})
	case mirrorSubReply:
		if len(p) < 8 {
			return true, fmt.Errorf("failover: mirror reply truncated")
		}
		created := marshal.Handle(binary.LittleEndian.Uint64(p))
		var rep marshal.Reply
		if err := marshal.DecodeReplyInto(&rep, p[8:]); err != nil {
			return true, err
		}
		m.MirrorReply(&server.RecordedCall{Seq: rep.Seq, Ret: rep.Ret, Outs: rep.Outs, Created: created})
	case mirrorSubDrop:
		if len(p) < 8 {
			return true, fmt.Errorf("failover: mirror drop truncated")
		}
		m.MirrorDrop(binary.LittleEndian.Uint64(p))
	case mirrorSubPrune:
		if len(p) < 8 {
			return true, fmt.Errorf("failover: mirror prune truncated")
		}
		m.MirrorPrune(marshal.Handle(binary.LittleEndian.Uint64(p)))
	case mirrorSubCheckpoint:
		epoch, w, rest, err := splitMark(p)
		if err != nil {
			return true, err
		}
		objects, err := marshal.DecodeObjectStates(rest)
		if err != nil {
			return true, err
		}
		m.MirrorCheckpoint(epoch, w, objects)
	case mirrorSubDelta:
		epoch, w, rest, err := splitMark(p)
		if err != nil {
			return true, err
		}
		deltas, err := marshal.DecodeObjectDeltas(rest)
		if err != nil {
			return true, err
		}
		if !m.MirrorCheckpointDelta(epoch, w, deltas) {
			return false, nil
		}
	case mirrorSubEpoch:
		epoch, w, _, err := splitMark(p)
		if err != nil {
			return true, err
		}
		m.MirrorEpoch(epoch, w)
	case mirrorSubReset:
		m.reset()
	default:
		return true, fmt.Errorf("failover: unknown mirror sub-op %d", op)
	}
	return true, nil
}

// EncodeMirrorState serializes a MirrorState for the wire: the payload of
// MirrorOpStateResp, and the unit a cross-machine rehydration fetches.
func EncodeMirrorState(st *MirrorState) []byte {
	var out []byte
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[:], st.Epoch)
	binary.LittleEndian.PutUint64(hdr[4:], st.W)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(st.Entries)))
	out = append(out, hdr[:]...)
	for i := range st.Entries {
		rc := &st.Entries[i]
		call := marshal.EncodeCall(&marshal.Call{Seq: rc.Seq, Func: rc.Func, Args: rc.Args})
		reply := marshal.EncodeReply(&marshal.Reply{Seq: rc.Seq, Status: marshal.StatusOK, Ret: rc.Ret, Outs: rc.Outs})
		var eh [9]byte
		binary.LittleEndian.PutUint64(eh[:], uint64(rc.Created))
		if st.ReplySeen[rc.Seq] {
			eh[8] = 1
		}
		out = append(out, eh[:]...)
		out = appendLenPrefixed(out, call)
		out = appendLenPrefixed(out, reply)
	}
	return append(out, marshal.EncodeObjectStates(st.Objects)...)
}

func appendLenPrefixed(out, frame []byte) []byte {
	var ln [4]byte
	binary.LittleEndian.PutUint32(ln[:], uint32(len(frame)))
	return append(append(out, ln[:]...), frame...)
}

func takeLenPrefixed(b []byte) (frame, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("failover: mirror state truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+n {
		return nil, nil, fmt.Errorf("failover: mirror state truncated")
	}
	return b[4 : 4+n], b[4+n:], nil
}

// DecodeMirrorState unpacks an EncodeMirrorState payload. The returned
// state shares nothing with b.
func DecodeMirrorState(b []byte) (*MirrorState, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("failover: mirror state truncated: %d bytes", len(b))
	}
	st := &MirrorState{
		Epoch:     binary.LittleEndian.Uint32(b),
		W:         binary.LittleEndian.Uint64(b[4:]),
		ReplySeen: make(map[uint64]bool),
	}
	n := int(binary.LittleEndian.Uint32(b[12:]))
	b = b[16:]
	for i := 0; i < n; i++ {
		if len(b) < 9 {
			return nil, fmt.Errorf("failover: mirror state entry %d truncated", i)
		}
		created := marshal.Handle(binary.LittleEndian.Uint64(b))
		seen := b[8] == 1
		b = b[9:]
		var callFrame, replyFrame []byte
		var err error
		if callFrame, b, err = takeLenPrefixed(b); err != nil {
			return nil, err
		}
		if replyFrame, b, err = takeLenPrefixed(b); err != nil {
			return nil, err
		}
		var c marshal.Call
		var rep marshal.Reply
		if err = marshal.DecodeCallInto(&c, callFrame); err == nil {
			err = marshal.DecodeReplyInto(&rep, replyFrame)
		}
		if err != nil {
			return nil, fmt.Errorf("failover: mirror state entry %d: %w", i, err)
		}
		st.Entries = append(st.Entries, server.RecordedCall{
			Func: c.Func, Args: c.Args, Seq: c.Seq,
			Ret: rep.Ret, Outs: rep.Outs, Created: created,
		})
		if seen {
			st.ReplySeen[c.Seq] = true
		}
	}
	objects, err := marshal.DecodeObjectStates(b)
	if err != nil {
		return nil, fmt.Errorf("failover: mirror state objects: %w", err)
	}
	st.Objects = objects
	return st, nil
}
