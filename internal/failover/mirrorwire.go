package failover

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ava/internal/marshal"
	"ava/internal/migrate"
)

// Mirror wire protocol: the payload layer of the mirror ops in transport's
// control envelope (transport.OpMirrorHello/Batch/State/StateResp). A
// RemoteMirror streams its guardian's shadow-log mutations to a mirror
// host as batches of sub-ops; the mirror host applies them to a per-VM
// MemoryMirror and acks each batch by opseq, giving the sender a
// replication watermark. The sub-op payloads reuse the marshal call/reply
// codecs — an append IS the recorded call, a reply IS the recorded reply —
// so the stream inherits the data plane's wire discipline.

// Batch sub-ops: each sub-frame is [subop u8][payload]. 5, a checkpoint of
// full states, is retired: full state is a delta set in which every object
// is Full.
const (
	mirrorSubAppend     byte = 1 // [created u64] + EncodeCall(Seq, Func, Args)
	mirrorSubReply      byte = 2 // [created u64] + EncodeReply(Seq, Ret, Outs)
	mirrorSubDrop       byte = 3 // [seq u64]
	mirrorSubPrune      byte = 4 // [handle u64]
	mirrorSubCheckpoint byte = 6 // [epoch u32][w u64] + EncodeObjectDeltas
	mirrorSubEpoch      byte = 7 // [epoch u32][w u64]
	mirrorSubReset      byte = 8 // empty: discard the VM's state (resync follows)
	mirrorSubCompact    byte = 9 // [n u64][seq u64]*n, ascending
)

// sub builds the [op][v u64][body] sub-frame; subMark the forms that carry
// an epoch before v.
func sub(op byte, v uint64, body []byte) []byte {
	out := binary.LittleEndian.AppendUint64(append(make([]byte, 0, 9+len(body)), op), v)
	return append(out, body...)
}

func subMark(op byte, epoch uint32, w uint64, body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(append(make([]byte, 0, 13+len(body)), op), epoch)
	return append(binary.LittleEndian.AppendUint64(out, w), body...)
}

// Created rides along on an append even though the guardian normally learns
// it from the reply: the remote mirror must converge to the staging mirror
// byte-for-byte, whatever the sink was fed.
func subAppend(rc *migrate.RecordedCall) []byte {
	return sub(mirrorSubAppend, uint64(rc.Created),
		marshal.EncodeCall(&marshal.Call{Seq: rc.Seq, Func: rc.Func, Args: rc.Args}))
}

func subReply(rc *migrate.RecordedCall) []byte {
	return sub(mirrorSubReply, uint64(rc.Created),
		marshal.EncodeReply(&marshal.Reply{Seq: rc.Seq, Status: marshal.StatusOK, Ret: rc.Ret, Outs: rc.Outs}))
}

func subCompact(seqs []uint64) []byte {
	body := make([]byte, 0, 8*len(seqs))
	for _, seq := range seqs {
		body = binary.LittleEndian.AppendUint64(body, seq)
	}
	return sub(mirrorSubCompact, uint64(len(seqs)), body)
}

// errNoBase reports a checkpoint sub-op that could not compose onto the
// state the mirror holds: the sender must resync with full state.
var errNoBase = errors.New("failover: mirror delta without its base")

// applyMirrorSub applies one sub-frame of a batch to m. An error is a
// malformed frame, or errNoBase.
func applyMirrorSub(m *MemoryMirror, sub []byte) error {
	r := marshal.NewReader(sub)
	op, err := r.U8()
	// Every sub-op but reset leads with a u64 (created handle, seq, handle
	// or watermark), the two marks with an epoch before it.
	var epoch uint32
	var v uint64
	if err == nil && op >= mirrorSubCheckpoint && op <= mirrorSubEpoch {
		epoch, err = r.U32()
	}
	if err == nil && op != mirrorSubReset {
		v, err = r.U64()
	}
	if err != nil {
		return fmt.Errorf("failover: mirror sub-op %d: %w", op, err)
	}
	switch op {
	case mirrorSubAppend:
		var c marshal.Call
		if err := marshal.DecodeCallInto(&c, r.Rest()); err != nil {
			return err
		}
		m.MirrorAppend(&migrate.RecordedCall{Func: c.Func, Args: c.Args, Seq: c.Seq, Created: marshal.Handle(v)})
	case mirrorSubReply:
		var rep marshal.Reply
		if err := marshal.DecodeReplyInto(&rep, r.Rest()); err != nil {
			return err
		}
		m.MirrorReply(&migrate.RecordedCall{Seq: rep.Seq, Ret: rep.Ret, Outs: rep.Outs, Created: marshal.Handle(v)})
	case mirrorSubDrop:
		m.MirrorDrop(v)
	case mirrorSubPrune:
		m.MirrorPrune(marshal.Handle(v))
	case mirrorSubCompact:
		body := r.Rest()
		if v != uint64(len(body)/8) || len(body)%8 != 0 {
			return fmt.Errorf("failover: mirror compact of %d seqs in %d bytes", v, len(body))
		}
		seqs := make([]uint64, v)
		for i := range seqs {
			seqs[i] = binary.LittleEndian.Uint64(body[8*i:])
			if i > 0 && seqs[i] <= seqs[i-1] {
				return fmt.Errorf("failover: mirror compact seqs not ascending at %d", i)
			}
		}
		m.MirrorCompact(seqs)
	case mirrorSubCheckpoint:
		deltas, err := marshal.DecodeObjectDeltas(r.Rest())
		if err != nil {
			return err
		}
		if !m.MirrorCheckpoint(epoch, v, deltas) {
			return errNoBase
		}
	case mirrorSubEpoch:
		m.MirrorEpoch(epoch, v)
	case mirrorSubReset:
		m.reset()
	default:
		return fmt.Errorf("failover: unknown mirror sub-op %d", op)
	}
	return nil
}

// EncodeMirrorState serializes a MirrorState for the wire — the payload of
// OpMirrorStateResp, and the unit a cross-machine rehydration fetches:
// [epoch u32][w u64][entries u32], per entry [created u64][replySeen u8]
// [len u32][EncodeCall][len u32][EncodeReply], then the objects as an
// EncodeObjectDeltas payload in which every object is Full.
func EncodeMirrorState(st *MirrorState) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32(nil, st.Epoch)
	out = le.AppendUint64(out, st.W)
	out = le.AppendUint32(out, uint32(len(st.Entries)))
	for i := range st.Entries {
		rc := &st.Entries[i]
		call := marshal.EncodeCall(&marshal.Call{Seq: rc.Seq, Func: rc.Func, Args: rc.Args})
		reply := marshal.EncodeReply(&marshal.Reply{Seq: rc.Seq, Status: marshal.StatusOK, Ret: rc.Ret, Outs: rc.Outs})
		seen := byte(0)
		if st.ReplySeen[rc.Seq] {
			seen = 1
		}
		out = append(le.AppendUint64(out, uint64(rc.Created)), seen)
		out = append(le.AppendUint32(out, uint32(len(call))), call...)
		out = append(le.AppendUint32(out, uint32(len(reply))), reply...)
	}
	return marshal.AppendObjectDeltas(out, fullDeltas(st.Objects))
}

// DecodeMirrorState unpacks an EncodeMirrorState payload. The returned
// state shares nothing with b.
func DecodeMirrorState(b []byte) (*MirrorState, error) {
	r := marshal.NewReader(b)
	epoch, e0 := r.U32()
	w, e1 := r.U64()
	n, e2 := r.U32()
	if err := errors.Join(e0, e1, e2); err != nil {
		return nil, fmt.Errorf("failover: mirror state header: %w", err)
	}
	st := &MirrorState{Epoch: epoch, W: w, ReplySeen: make(map[uint64]bool)}
	for i := uint32(0); i < n; i++ {
		created, e0 := r.U64()
		seen, e1 := r.U8()
		callFrame, e2 := r.Bytes32()
		replyFrame, e3 := r.Bytes32()
		var c marshal.Call
		var rep marshal.Reply
		err := errors.Join(e0, e1, e2, e3)
		if err == nil {
			err = marshal.DecodeCallInto(&c, callFrame)
		}
		if err == nil {
			err = marshal.DecodeReplyInto(&rep, replyFrame)
		}
		if err != nil {
			return nil, fmt.Errorf("failover: mirror state entry %d: %w", i, err)
		}
		st.Entries = append(st.Entries, migrate.RecordedCall{
			Func: c.Func, Args: c.Args, Seq: c.Seq,
			Ret: rep.Ret, Outs: rep.Outs, Created: marshal.Handle(created),
		})
		if seen == 1 {
			st.ReplySeen[c.Seq] = true
		}
	}
	deltas, err := marshal.DecodeObjectDeltas(r.Rest())
	if err == nil {
		for _, d := range deltas {
			if !d.Full {
				err = fmt.Errorf("object %d is not Full", d.Handle)
				break
			}
		}
	}
	if err == nil {
		st.Objects, err = composeOnto(nil, deltas)
	}
	if err != nil {
		return nil, fmt.Errorf("failover: mirror state objects: %w", err)
	}
	return st, nil
}
