package marshal

import "errors"

// Control notices travel guardian→guest on the reply channel, as Reply
// frames whose Seq lives in the reserved CtrlSeqBase range so they can never
// collide with a real call's reply. The payload rides in Ret as an opaque
// byte buffer: [kind u8][epoch u32 LE][watermark u64 LE]. (They are not
// transport control envelopes on purpose: the guest's one receive loop
// already demultiplexes replies by Seq, and a notice must keep its place in
// the reply order — DESIGN.md, "Wire formats".)

// Control notice kinds.
const (
	// CtrlCheckpoint announces a completed periodic checkpoint at
	// watermark W: the guest may trim its retained-call window to seq > W.
	CtrlCheckpoint = 1
	// CtrlRecover announces a completed recovery onto a fresh endpoint
	// epoch: the guest must resubmit its unacked window stamped with the
	// new epoch.
	CtrlRecover = 2
	// CtrlDead announces an abandoned recovery (respawn budget exhausted):
	// the guest must fail in-flight calls with averr.ErrRetryable.
	CtrlDead = 3
)

// EncodeControl builds the control Reply frame for a notice.
func EncodeControl(kind byte, epoch uint32, watermark uint64) []byte {
	var buf [13]byte
	payload := appendUint64(appendUint32(append(buf[:0], kind), epoch), watermark)
	return EncodeReply(&Reply{
		Seq:    CtrlSeqBase | uint64(kind),
		Status: StatusOK,
		Ret:    BytesVal(payload),
	})
}

// DecodeControl extracts a control notice from a decoded Reply whose Seq is
// in the control range. ok=false means the frame is not a well-formed
// notice and must be ignored.
func DecodeControl(rep *Reply) (kind byte, epoch uint32, watermark uint64, ok bool) {
	if rep.Seq < CtrlSeqBase || rep.Seq >= MarkerSeqBase || rep.Ret.kind != KindBytes {
		return 0, 0, 0, false
	}
	r := Reader{b: rep.Ret.Bytes()}
	kind, e0 := r.U8()
	epoch, e1 := r.U32()
	watermark, e2 := r.U64()
	return kind, epoch, watermark, errors.Join(e0, e1, e2, r.Done()) == nil
}
